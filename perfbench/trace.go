package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/storage"
)

// layer names one span boundary of the engine leg.
type layer int

const (
	lCore      layer = iota // shard.Engine call: one user op on one engine
	lPosMap                 // core.PositionMap (flat trees)
	lEncRead                // encrypt.Store ReadPath
	lEncWrite               // encrypt.Store WritePath
	lStorRead               // storage.Storage ReadBuckets (outermost)
	lStorWrite              // storage.Storage WriteBuckets (outermost)
	lStorInner              // storage.File under the WAL
	lTimedData              // core.TimedStore of the data ORAM
	lTimedPos               // core.TimedStore of a position-map ORAM
	lMemData                // core.MemStore under the data ORAM's timed store
	lMemPos                 // core.MemStore under a position-map ORAM's timed store
	lBatch                  // one same-op run submitted to shard.Pool.DoBatch
	nLayers
)

var layerNames = [nLayers]string{
	"core", "posmap", "encrypt.read", "encrypt.write", "storage.read", "storage.write",
	"storage.inner", "membus.data", "membus.pos", "memstore.data", "memstore.pos", "shard.batch",
}

// span is one finished span; spans of one engine op share op.
type span struct {
	op, id, parent int64
	layer          layer
	start, end     int64 // ns since the tracer's epoch
}

// layerAgg sums one layer's spans: self time excludes child spans.
type layerAgg struct {
	n           int64
	total, self int64
}

// tracer records the spans of one goroutine (a shard worker or a load
// connection) as a stack, so no span crosses goroutines and no lock is
// taken. It keeps the first maxSpans spans for the span file and sums
// every span into per-layer aggregates.
type tracer struct {
	epoch time.Time
	stack []frame
	agg   [nLayers]layerAgg
	spans []span
	ids   int64
	op    int64

	// Counts kept where the work happens.
	storBytes         int64   // bytes handed to Storage writes (outer and inner)
	fileSyncs         int64   // Sync calls on the storage under the WAL
	ckpts             int64   // WAL writes that ran a checkpoint
	ckptNs, appendNs  int64   // WAL writes with and without a checkpoint
	waitNs, waits     int64   // shard queueing before the engine started
	imbalance, imbRun float64 // sum of per-run max/mean shard load, runs
}

type frame struct {
	layer layer
	id    int64
	start int64
	child int64
}

const maxSpans = 4096

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(l layer) {
	t.ids++
	if len(t.stack) == 0 {
		t.op++
	}
	t.stack = append(t.stack, frame{layer: l, id: t.ids, start: t.now()})
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() int64 {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	a := &t.agg[f.layer]
	a.n++
	a.total += dur
	a.self += dur - f.child
	var parent int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{op: t.op, id: f.id, parent: parent, layer: f.layer, start: f.start, end: end})
	}
	return dur
}

// reset drops everything recorded so far (the lockstep check's spans).
func (t *tracer) reset() { *t = tracer{epoch: t.epoch} }

// merge adds o's aggregates and counts into t.
func (t *tracer) merge(o *tracer) {
	for i := range t.agg {
		t.agg[i].n += o.agg[i].n
		t.agg[i].total += o.agg[i].total
		t.agg[i].self += o.agg[i].self
	}
	t.storBytes += o.storBytes
	t.fileSyncs += o.fileSyncs
	t.ckpts += o.ckpts
	t.ckptNs += o.ckptNs
	t.appendNs += o.appendNs
	t.waitNs += o.waitNs
	t.waits += o.waits
	t.imbalance += o.imbalance
	t.imbRun += o.imbRun
	if room := maxSpans - len(t.spans); room > 0 {
		if room > len(o.spans) {
			room = len(o.spans)
		}
		t.spans = append(t.spans, o.spans[:room]...)
	}
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for g, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(bw, `{"goroutine":%d,"op":%d,"id":%d,"parent":%d,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				g, s.op, s.id, s.parent, layerNames[s.layer], s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// posMapW times core.PositionMap calls.
type posMapW struct {
	inner core.PositionMap
	t     *tracer
}

func (w posMapW) Access(group uint64) (uint32, uint32, error) {
	w.t.begin(lPosMap)
	defer w.t.end()
	return w.inner.Access(group)
}

func (w posMapW) Peek(group uint64) (uint32, bool, error) {
	w.t.begin(lPosMap)
	defer w.t.end()
	return w.inner.Peek(group)
}

// pathW times core.PathStore calls; read and write may be different
// layers (the encrypting store's decrypt and seal sides).
type pathW struct {
	inner       core.PathStore
	t           *tracer
	read, write layer
}

func (w pathW) ReadPath(leaf uint64, skip []bool, dst [][]core.Slot) ([][]core.Slot, error) {
	w.t.begin(w.read)
	defer w.t.end()
	return w.inner.ReadPath(leaf, skip, dst)
}

func (w pathW) WritePath(leaf uint64, buckets [][]core.Slot) error {
	w.t.begin(w.write)
	defer w.t.end()
	return w.inner.WritePath(leaf, buckets)
}

// storageW times storage.Storage calls. The outer wrapper (the one the
// encrypting store writes through) classifies each WriteBuckets as an
// append or, when the storage under a WAL was synced during it, a
// checkpoint. The inner wrapper counts bytes and syncs and times the
// checkpoint's apply and sync steps as children of the outer span.
type storageW struct {
	storage.Storage
	t     *tracer
	outer bool
}

func (w storageW) ReadBuckets(flats []uint64, dst [][]byte) error {
	if !w.outer {
		return w.Storage.ReadBuckets(flats, dst)
	}
	w.t.begin(lStorRead)
	defer w.t.end()
	return w.Storage.ReadBuckets(flats, dst)
}

func (w storageW) WriteBuckets(flats []uint64, recs [][]byte) error {
	w.t.storBytes += int64(len(recs) * w.Stride())
	if !w.outer {
		return w.Storage.WriteBuckets(flats, recs)
	}
	syncs := w.t.fileSyncs
	w.t.begin(lStorWrite)
	err := w.Storage.WriteBuckets(flats, recs)
	dur := w.t.end()
	if w.t.fileSyncs != syncs {
		w.t.ckpts++
		w.t.ckptNs += dur
	} else {
		w.t.appendNs += dur
	}
	return err
}

func (w storageW) WriteBucket(flat uint64, rec []byte) error {
	w.t.storBytes += int64(len(rec))
	if w.outer {
		return w.Storage.WriteBucket(flat, rec)
	}
	w.t.begin(lStorInner)
	defer w.t.end()
	return w.Storage.WriteBucket(flat, rec)
}

func (w storageW) Sync() error {
	if w.outer {
		return w.Storage.Sync()
	}
	w.t.fileSyncs++
	w.t.begin(lStorInner)
	defer w.t.end()
	return w.Storage.Sync()
}

// waitBook pairs each submitted request with the moment it was queued,
// keyed by its payload buffer (reads carry Dst, writes Data), so the
// engine wrapper can tell how long the request waited in the shard
// queue.
type waitBook struct {
	mu sync.Mutex
	at map[*byte]time.Time
}

func newWaitBook() *waitBook { return &waitBook{at: map[*byte]time.Time{}} }

func (b *waitBook) put(buf []byte) {
	now := time.Now()
	b.mu.Lock()
	b.at[&buf[0]] = now
	b.mu.Unlock()
}

func (b *waitBook) take(buf []byte, t *tracer) {
	now := time.Now()
	b.mu.Lock()
	at, ok := b.at[&buf[0]]
	delete(b.at, &buf[0])
	b.mu.Unlock()
	if ok {
		t.waitNs += int64(now.Sub(at))
		t.waits++
	}
}

// engineW times shard.Engine calls on the shard's worker goroutine.
type engineW struct {
	shard.Engine
	t     *tracer
	waits *waitBook
}

func (e engineW) ReadInto(addr uint64, dst []byte) (bool, error) {
	e.waits.take(dst, e.t)
	e.t.begin(lCore)
	defer e.t.end()
	return e.Engine.ReadInto(addr, dst)
}

func (e engineW) Write(addr uint64, data []byte) error {
	e.waits.take(data, e.t)
	e.t.begin(lCore)
	defer e.t.end()
	return e.Engine.Write(addr, data)
}
