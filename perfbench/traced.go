package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pathoram "repro"
	"repro/internal/service"
	"repro/internal/shard"
)

// checkOps is how many mixed ops per connection the lockstep
// same-program check runs after the prefill.
const checkOps = 1000

// runTraced is the traced run: the per-layer split of one workload.
// Each measured phase (reference engines, traced engines, edge) lasts a
// third of --seconds.
func runTraced(o options, w *workload) (*result, error) {
	dir, err := runDir(o.work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	phase := time.Duration(o.seconds / 3 * float64(time.Second))
	r := &result{}

	spec, err := serverSpec(w, o.blocks, filepath.Join(dir, "edge"))
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	e, err := w.build(engineConfig{spec: spec, seed: o.seed, dir: dir, epoch: epoch})
	if err != nil {
		return nil, err
	}
	defer e.close() //nolint:errcheck // error paths only; the success path checks it
	gHand, gRef := make([]*connGen, conns), make([]*connGen, conns)
	for c := range gHand {
		gHand[c] = newConnGen(c, o.seed, o.blocks, w)
		gRef[c] = newConnGen(c, o.seed, o.blocks, w)
	}
	if err := lockstep(e, gHand, gRef); err != nil {
		r.fail("same-program check: %v", err)
		return r, nil
	}
	for _, t := range e.tracers {
		t.reset()
	}

	// The two stacks alternate ABBA, which cancels linear drift between
	// their phases (warm-up, collecting the lockstep phase's garbage).
	var ref, traced engineRun
	for _, tr := range []bool{false, true, true, false} {
		run, engines, gens := &ref, e.ref, gRef
		if tr {
			run, engines, gens = &traced, e.traced, gHand
		}
		if err := driveEngines(e, engines, gens, w, phase/2, tr, epoch, run); err != nil {
			return nil, err
		}
	}
	r.attempted += ref.checked + traced.checked
	r.failed += ref.bad + traced.bad
	tracers := append(traced.tracers, e.tracers...)
	if err := writeSpans(filepath.Join(o.work, "spans-"+w.name+".jsonl"), tracers); err != nil {
		return nil, err
	}
	t := newTracer(epoch)
	for _, x := range tracers {
		t.merge(x)
	}
	refRate, tracedRate := ref.rate(), traced.rate()
	ops := float64(traced.ops)
	r.add("core.access_self_ns", ratio(float64(t.agg[lCore].self), ops))
	r.add("encrypt.read_self_ns", ratio(float64(t.agg[lEncRead].self), ops))
	r.add("encrypt.write_self_ns", ratio(float64(t.agg[lEncWrite].self), ops))
	r.add("storage.read_ns", ratio(float64(t.agg[lStorRead].total), ops))
	r.add("storage.append_ns", ratio(float64(t.appendNs), ops))
	r.add("storage.checkpoint_ns", ratio(float64(t.ckptNs), float64(t.ckpts)))
	r.add("storage.checkpoints_per_kop", ratio(1000*float64(t.ckpts), ops))
	r.add("storage.bytes_per_op", ratio(float64(t.storBytes), ops))
	timed := t.agg[lTimedData].self + t.agg[lTimedPos].self
	paths := t.agg[lTimedData].n + t.agg[lTimedPos].n
	r.add("membus.host_ns_per_path", ratio(float64(timed), float64(paths)))
	r.add("hierarchy.posmap_levels_ns", ratio(float64(t.agg[lTimedPos].total), ops))
	r.add("shard.batch_ns", ratio(float64(t.agg[lBatch].total), float64(t.agg[lBatch].n)))
	r.add("shard.wait_ns", ratio(float64(t.waitNs), float64(t.waits)))
	r.add("shard.imbalance", ratio(t.imbalance, t.imbRun))
	r.add("trace.overhead_ratio", ratio(refRate, tracedRate))
	r.note("engine.ref_ops_per_s", "1/s", refRate)
	r.note("engine.traced_ops_per_s", "1/s", tracedRate)

	if err := runEdge(o, w, spec, phase, r); err != nil {
		return nil, err
	}
	// A failed final checkpoint or close of the engine leg's trees fails
	// the run.
	if err := e.close(); err != nil {
		r.fail("closing the engine leg: %v", err)
	}
	return r, nil
}

// lockstep prefills both stacks and runs checkOps mixed ops per
// connection through both, one op at a time, then holds them to the
// same program.
func lockstep(e *engineSet, gHand, gRef []*connGen) error {
	buf, want, got := make([]byte, blockSize), make([]byte, blockSize), make([]byte, blockSize)
	for _, g := range gHand {
		for i := uint64(0); i < g.n; i++ {
			if err := e.stepBoth(g, planned{op: op{write: true, idx: i}}, buf, want, got); err != nil {
				return err
			}
		}
	}
	for i := 0; i < checkOps; i++ {
		for c, g := range gHand {
			p := g.plan(g.next())
			if q := gRef[c].plan(gRef[c].next()); q != p {
				return fmt.Errorf("generators diverged")
			}
			if err := e.stepBoth(g, p, buf, want, got); err != nil {
				return err
			}
		}
	}
	return e.sameProgram()
}

// engineRun accumulates the engine phases of one stack.
type engineRun struct {
	ops, checked, bad int64
	secs              float64
	tracers           []*tracer // connection-side tracers
}

func (r *engineRun) rate() float64 { return ratio(float64(r.ops-r.bad), r.secs) }

// driveEngines runs the closed loop of every connection against a pool
// of engines for d and adds what it measured to run. With traced set
// the connections time their batch submissions and the engines'
// wrappers record into the set's tracers.
func driveEngines(e *engineSet, engines []shard.Engine, gens []*connGen, w *workload, d time.Duration, traced bool, epoch time.Time, run *engineRun) error {
	pool, err := shard.NewPool(engines, shard.Config{})
	if err != nil {
		return err
	}
	cs := make([]*engConn, len(gens))
	for i, g := range gens {
		cs[i] = newEngConn(g, pool, e.shards, w.batch)
		if traced {
			cs[i].t, cs[i].waits = newTracer(epoch), e.waits
			run.tracers = append(run.tracers, cs[i].t)
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step()
			}
		}()
	}
	wg.Wait()
	run.secs += time.Since(t0).Seconds()
	if err := pool.Close(); err != nil {
		return err
	}
	for _, c := range cs {
		run.ops += c.ops
		run.checked += c.ops
		run.bad += c.bad
	}
	return nil
}

// engConn is one closed-loop connection of the engine leg: it submits
// its ops to the shard pool the way the service does (single ops with
// Do, a batch as maximal same-op runs with DoBatch) and checks every
// read against its shadow.
type engConn struct {
	g      *connGen
	pool   *shard.Pool
	shards int
	batch  int
	t      *tracer
	waits  *waitBook

	plan   []planned
	reqs   []shard.Request
	ptrs   []*shard.Request
	routes []int
	bufs   [][]byte
	want   []byte
	ops    int64
	bad    int64
}

func newEngConn(g *connGen, pool *shard.Pool, shards, batch int) *engConn {
	n := max(batch, 1)
	c := &engConn{g: g, pool: pool, shards: shards, batch: batch,
		reqs: make([]shard.Request, n), ptrs: make([]*shard.Request, n), routes: make([]int, n),
		want: make([]byte, blockSize)}
	for i := 0; i < n; i++ {
		c.bufs = append(c.bufs, make([]byte, blockSize))
	}
	return c
}

// handleBatch's cap on a same-op run.
const batchRun = 256

func (c *engConn) step() {
	n := max(c.batch, 1)
	c.plan = c.plan[:0]
	for i := 0; i < n; i++ {
		c.plan = append(c.plan, c.g.plan(c.g.next()))
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && c.plan[j].write == c.plan[i].write && j-i < batchRun {
			j++
		}
		c.submit(c.plan[i:j])
		i = j
	}
}

func (c *engConn) submit(run []planned) {
	perShard := make([]int, c.shards)
	for k, p := range run {
		addr := c.g.addr(p.idx)
		s := int(addr % uint64(c.shards))
		req := &c.reqs[k]
		*req = shard.Request{Addr: addr / uint64(c.shards)}
		buf := c.bufs[k]
		if p.write {
			req.Op, req.Data = shard.OpWrite, payload(addr, p.ver, buf)
		} else {
			req.Op, req.Dst = shard.OpRead, buf
		}
		c.routes[k], c.ptrs[k] = s, req
		perShard[s]++
		if c.waits != nil {
			c.waits.put(buf)
		}
	}
	if c.batch == 0 {
		c.pool.Do(c.routes[0], c.ptrs[0]) //nolint:errcheck // the outcome is in Err
	} else {
		if c.t != nil {
			c.t.begin(lBatch)
		}
		c.pool.DoBatch(c.routes[:len(run)], c.ptrs[:len(run)]) //nolint:errcheck // per-request outcomes are in Err
		if c.t != nil {
			c.t.end()
			most := 0
			for _, k := range perShard {
				most = max(most, k)
			}
			c.t.imbalance += float64(most) * float64(c.shards) / float64(len(run))
			c.t.imbRun++
		}
	}
	for k, p := range run {
		c.ops++
		req := c.ptrs[k]
		if req.Err != nil || (!p.write && !bytes.Equal(req.Dst, payload(c.g.addr(p.idx), p.ver, c.want))) {
			c.bad++
		}
	}
}

// timingHandler times the handler of every data request.
type timingHandler struct {
	next     http.Handler
	ns, reqs atomic.Int64
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/t/") || strings.HasSuffix(r.URL.Path, "/stats") {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.ns.Add(int64(time.Since(t0)))
	h.reqs.Add(1)
}

// runEdge is the edge leg: the service in-process behind a timing
// middleware on a loopback listener, driven by the same generator as
// the served run. It reports the service split and the protocol and
// modeled counts from the stats endpoint.
func runEdge(o options, w *workload, spec pathoram.Spec, d time.Duration, r *result) error {
	svc, err := service.New(service.Config{Template: spec})
	if err != nil {
		return err
	}
	if _, err := svc.Create(tenant); err != nil {
		svc.Close()
		return err
	}
	th := &timingHandler{next: svc.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return err
	}
	hs := &http.Server{Handler: th}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	cs := newConns(o, w, tenantURL(ln.Addr().String()))
	stop := func() error {
		closeConns(cs)
		err := hs.Shutdown(context.Background())
		<-served
		return errors.Join(err, svc.Close())
	}
	if err := prefillConns(cs); err != nil {
		stop()
		return err
	}
	runConns(cs, o.warmup, false)
	var before, after statsBody
	url := tenantURL(ln.Addr().String()) + "/stats"
	if err := getJSON(cs[0].client, url, &before); err != nil {
		stop()
		return err
	}
	th.ns.Store(0)
	th.reqs.Store(0)
	var wire0 int64
	for _, c := range cs {
		wire0 += c.wire.Load()
	}
	runConns(cs, d, true)
	var wire int64
	for _, c := range cs {
		wire += c.wire.Load()
	}
	if err := getJSON(cs[0].client, url, &after); err != nil {
		stop()
		return err
	}
	if err := stop(); err != nil {
		return err
	}

	var ops, reqNs, reqs int64
	for _, c := range cs {
		ops += c.stats.ops
		r.attempted += c.stats.checked
		r.failed += c.stats.bad
		for _, ns := range c.stats.reqNs {
			reqNs += ns
		}
		reqs += int64(len(c.stats.reqNs))
	}
	handler := ratio(float64(th.ns.Load()), float64(th.reqs.Load()))
	r.add("service.handler_ns", handler)
	r.add("service.transport_ns", ratio(float64(reqNs), float64(reqs))-handler)
	r.add("service.wire_bytes_per_op", ratio(float64(wire-wire0), float64(ops)))

	b, a := before.Stats, after.Stats
	paths := (a.RealAccesses + a.DummyAccesses + a.PaddingAccesses + a.EvictionAccesses) -
		(b.RealAccesses + b.DummyAccesses + b.PaddingAccesses + b.EvictionAccesses)
	r.add("core.paths_per_op", ratio(float64(paths), float64(ops)))
	r.add("hierarchy.chain_len", ratio(float64(a.ChainLevels-b.ChainLevels), float64(a.ChainSamples-b.ChainSamples)))
	hits, misses := a.PLBHits-b.PLBHits, a.PLBMisses-b.PLBMisses
	r.add("hierarchy.plb_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	var readCycles, pathReads, rowHits, rowMisses float64
	if before.Timing != nil && after.Timing != nil {
		bt, at := before.Timing, after.Timing
		readCycles, pathReads = float64(at.ReadCycles-bt.ReadCycles), float64(at.PathReads-bt.PathReads)
		rowHits, rowMisses = float64(at.DRAM.RowHits-bt.DRAM.RowHits), float64(at.DRAM.RowMisses-bt.DRAM.RowMisses)
	}
	r.add("membus.read_cycles_per_path", ratio(readCycles, pathReads))
	r.add("dram.row_hit_ratio", ratio(rowHits, rowHits+rowMisses))
	return nil
}
