package service

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	pathoram "repro"
)

// Wire types. Data rides as base64 (encoding/json's []byte convention);
// every block is exactly the service's BlockSize.
type opRequest struct {
	// Op selects the operation on the batch endpoint ("read" | "write");
	// the single-op endpoints fix it by URL and ignore the field.
	Op   string `json:"op,omitempty"`
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
}

type opResult struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

type statsBody struct {
	Tenant            string                `json:"tenant"`
	Stats             pathoram.Stats        `json:"stats"`
	Timing            *pathoram.TimingStats `json:"timing,omitempty"`
	StashSize         int                   `json:"stash_size"`
	PendingWriteBacks int                   `json:"pending_writebacks"`
	OnChipBytes       uint64                `json:"onchip_bytes"`
	ExternalBytes     uint64                `json:"external_bytes"`
}

// Handler returns the service's HTTP API:
//
//	GET    /healthz                 liveness
//	GET    /v1/tenants              list tenant names
//	PUT    /v1/tenants/{name}       create a tenant (201; 409 if present)
//	DELETE /v1/tenants/{name}       drop a tenant (flush + close its trees)
//	POST   /v1/t/{name}/read        {"addr":N} → {"addr":N,"data":base64}
//	POST   /v1/t/{name}/write       {"addr":N,"data":base64} → {"addr":N}
//	POST   /v1/t/{name}/batch       NDJSON op stream → NDJSON result stream
//	GET    /v1/t/{name}/stats       protocol + timing counters (admin)
//
// Errors are {"error":...} with 400 (malformed), 404 (no tenant), 409
// (exists), 413 (single-op body larger than any valid op), 503
// (draining).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tenants": s.Names()})
	})
	mux.HandleFunc("PUT /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		t, err := s.Create(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"tenant": t.Name, "index": t.Index})
	})
	mux.HandleFunc("DELETE /v1/tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Drop(r.PathValue("name")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
	})
	mux.HandleFunc("POST /v1/t/{name}/read", s.tenantHandler(s.handleRead))
	mux.HandleFunc("POST /v1/t/{name}/write", s.tenantHandler(s.handleWrite))
	mux.HandleFunc("POST /v1/t/{name}/batch", s.tenantHandler(s.handleBatch))
	mux.HandleFunc("GET /v1/t/{name}/stats", s.tenantHandler(s.handleStats))
	return mux
}

// tenantHandler resolves {name} and maps registry errors before the
// per-endpoint logic runs.
func (s *Service) tenantHandler(fn func(w http.ResponseWriter, r *http.Request, t *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Get(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		fn(w, r, t)
	}
}

// opEnvelopeBytes is the slack a single-op body gets beyond its base64
// block: field names, a 20-digit address, an op tag and whitespace.
const opEnvelopeBytes = 1 << 10

// decodeOp decodes a single-op request body, bounded to the largest valid
// op — one base64 block plus the JSON envelope — so a hostile body is
// rejected (413) instead of being buffered into memory. It reports false
// after writing the error response.
func (s *Service) decodeOp(w http.ResponseWriter, r *http.Request) (opRequest, bool) {
	var req opRequest
	limit := int64(base64.StdEncoding.EncodedLen(s.template.BlockSize)) + opEnvelopeBytes
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{Error: "malformed request: " + err.Error()})
		return req, false
	}
	return req, true
}

func (s *Service) handleRead(w http.ResponseWriter, r *http.Request, t *Tenant) {
	req, ok := s.decodeOp(w, r)
	if !ok {
		return
	}
	data, err := t.Client.Read(req.Addr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, opResult{Addr: req.Addr, Data: data})
}

func (s *Service) handleWrite(w http.ResponseWriter, r *http.Request, t *Tenant) {
	req, ok := s.decodeOp(w, r)
	if !ok {
		return
	}
	if len(req.Data) != s.template.BlockSize {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("data is %d bytes, want the block size %d", len(req.Data), s.template.BlockSize)})
		return
	}
	if err := t.Client.Write(req.Addr, req.Data); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, opResult{Addr: req.Addr})
}

// batchRun caps how many decoded ops a same-op run accumulates before it
// is submitted to the scheduler — bounding memory for unbounded streams
// while keeping submissions large enough to fan out across shards.
const batchRun = 256

// handleBatch streams NDJSON ops in and NDJSON results out, in input
// order. Maximal runs of the same op are submitted as one ReadBatch /
// WriteBatch, so a streamed batch enters the sharded scheduler exactly
// like a native batched client. A malformed line or failed submission
// emits one {"error":...} line and ends the stream (results already
// emitted stand).
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request, t *Tenant) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	dec := json.NewDecoder(r.Body)
	enc := json.NewEncoder(w)
	fail := func(err error) { enc.Encode(errorBody{Error: err.Error()}) } //nolint:errcheck // stream already ends here

	var (
		op    string
		addrs []uint64
		data  [][]byte
	)
	flush := func() error {
		if len(addrs) == 0 {
			return nil
		}
		if op == "write" {
			if err := t.Client.WriteBatch(addrs, data); err != nil {
				return err
			}
			for _, a := range addrs {
				if err := enc.Encode(opResult{Addr: a}); err != nil {
					return err
				}
			}
		} else {
			results, err := t.Client.ReadBatch(addrs)
			if err != nil {
				return err
			}
			for i, a := range addrs {
				if err := enc.Encode(opResult{Addr: a, Data: results[i]}); err != nil {
					return err
				}
			}
		}
		addrs, data = addrs[:0], data[:0]
		return nil
	}
	for {
		var req opRequest
		if err := dec.Decode(&req); err == io.EOF {
			break
		} else if err != nil {
			fail(fmt.Errorf("malformed op: %w", err))
			return
		}
		switch req.Op {
		case "read":
			if len(req.Data) != 0 {
				fail(fmt.Errorf("read op for addr %d carries data", req.Addr))
				return
			}
		case "write":
			if len(req.Data) != s.template.BlockSize {
				fail(fmt.Errorf("write op for addr %d: data is %d bytes, want %d", req.Addr, len(req.Data), s.template.BlockSize))
				return
			}
		default:
			fail(fmt.Errorf("unknown op %q (want read|write)", req.Op))
			return
		}
		if req.Op != op || len(addrs) >= batchRun {
			if err := flush(); err != nil {
				fail(err)
				return
			}
			op = req.Op
		}
		addrs = append(addrs, req.Addr)
		if req.Op == "write" {
			data = append(data, req.Data)
		}
	}
	if err := flush(); err != nil {
		fail(err)
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request, t *Tenant) {
	body := statsBody{
		Tenant:            t.Name,
		Stats:             t.Client.Stats(),
		StashSize:         t.Client.StashSize(),
		PendingWriteBacks: t.Client.PendingWriteBacks(),
		OnChipBytes:       t.Client.OnChipBytes(),
		ExternalBytes:     t.Client.ExternalMemoryBytes(),
	}
	if ts, ok := t.Client.TimingStats(); ok {
		body.Timing = &ts
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // response already committed
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoTenant):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}
