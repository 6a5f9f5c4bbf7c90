package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// httpConn is one closed-loop client connection: it sends its next
// request only after the previous response has been read in full. Each
// owns one TCP connection (MaxConnsPerHost 1) whose bytes it counts.
type httpConn struct {
	g      *connGen
	batch  int
	client *http.Client
	base   string // http://host:port/v1/t/<tenant>
	wire   atomic.Int64

	body  bytes.Buffer
	resp  bytes.Buffer
	plan  []planned
	data  [blockSize]byte
	b64   [base64Len]byte
	want  [blockSize]byte
	stats connStats
}

const base64Len = (blockSize + 2) / 3 * 4

// connStats is what one connection measured. checked and bad count
// every op whose result was checked, warm-up included; the rest cover
// the measured phase only.
type connStats struct {
	checked, bad    int64
	ops, failed     int64
	reqNs           []int64 // per HTTP request
	readNs, writeNs []int64 // per single-op request, by type
}

func newHTTPConn(g *connGen, w *workload, base string) *httpConn {
	c := &httpConn{g: g, batch: w.batch, base: base}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countConn{Conn: conn, n: &c.wire}, nil
	}
	c.client = &http.Client{
		Transport: &http.Transport{
			DialContext:         dial,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	return c
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

// countConn counts the bytes a connection moves in both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// post sends the buffered body and reads the whole response into c.resp.
func (c *httpConn) post(path string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := c.resp.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (c *httpConn) writeOp(p planned, batch bool) {
	addr := c.g.addr(p.idx)
	if batch {
		if p.write {
			c.body.WriteString(`{"op":"write","addr":`)
		} else {
			c.body.WriteString(`{"op":"read","addr":`)
		}
	} else {
		c.body.WriteString(`{"addr":`)
	}
	c.body.WriteString(strconv.FormatUint(addr, 10))
	if p.write {
		base64.StdEncoding.Encode(c.b64[:], payload(addr, p.ver, c.data[:]))
		c.body.WriteString(`,"data":"`)
		c.body.Write(c.b64[:])
		c.body.WriteByte('"')
	}
	c.body.WriteString("}\n")
}

// checkResult checks one result line: a write must carry no error, a
// read must decode to exactly the planned version.
func (c *httpConn) checkResult(p planned, line []byte) bool {
	if bytes.Contains(line, []byte(`"error"`)) {
		return false
	}
	if p.write {
		return true
	}
	const key = `"data":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return false
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j != base64Len {
		return false
	}
	var got [blockSize]byte
	if _, err := base64.StdEncoding.Decode(got[:], rest[:j]); err != nil {
		return false
	}
	return bytes.Equal(got[:], payload(c.g.addr(p.idx), p.ver, c.want[:]))
}

// request plans and sends one request (a single op or a batch) and
// checks every result. record adds its latency to the statistics.
func (c *httpConn) request(record bool) {
	n := c.batch
	if n == 0 {
		n = 1
	}
	c.plan = c.plan[:0]
	for i := 0; i < n; i++ {
		c.plan = append(c.plan, c.g.plan(c.g.next()))
	}
	c.send(c.plan, record)
}

// send issues planned ops as one request. The results are checked in
// order; a transport error or non-200 fails every op of the request.
func (c *httpConn) send(plan []planned, record bool) {
	c.body.Reset()
	path := "/batch"
	if c.batch == 0 {
		path = "/read"
		if plan[0].write {
			path = "/write"
		}
	}
	for _, p := range plan {
		c.writeOp(p, c.batch != 0)
	}
	t0 := time.Now()
	status, err := c.post(path)
	dur := time.Since(t0).Nanoseconds()
	failed := int64(0)
	if err != nil || status != http.StatusOK {
		failed = int64(len(plan))
	} else {
		sc := bufio.NewScanner(bytes.NewReader(c.resp.Bytes()))
		i := 0
		for ; i < len(plan) && sc.Scan(); i++ {
			if !c.checkResult(plan[i], sc.Bytes()) {
				failed++
			}
		}
		failed += int64(len(plan) - i)
	}
	s := &c.stats
	s.checked += int64(len(plan))
	s.bad += failed
	if !record {
		return
	}
	s.ops += int64(len(plan))
	s.failed += failed
	s.reqNs = append(s.reqNs, dur)
	if c.batch == 0 {
		if plan[0].write {
			s.writeNs = append(s.writeNs, dur)
		} else {
			s.readNs = append(s.readNs, dur)
		}
	}
}

// prefill writes version 0 of every owned address in 64-op batches.
func (c *httpConn) prefill() error {
	batch := c.batch
	c.batch = 64
	defer func() { c.batch = batch }()
	plan := make([]planned, 0, 64)
	for i := uint64(0); i < c.g.n; i += 64 {
		plan = plan[:0]
		for j := i; j < i+64 && j < c.g.n; j++ {
			plan = append(plan, planned{op: op{write: true, idx: j}})
		}
		c.send(plan, false)
		if c.stats.bad != 0 {
			return fmt.Errorf("prefill of connection %d failed near index %d: %s", c.g.conn, i, c.resp.String())
		}
	}
	c.stats = connStats{}
	return nil
}

// runConns drives every connection's closed loop until the deadline.
func runConns(cs []*httpConn, d time.Duration, record bool) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.request(record)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// prefillConns runs every connection's prefill concurrently.
func prefillConns(cs []*httpConn) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.prefill()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// getJSON fetches url into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, out)
}
