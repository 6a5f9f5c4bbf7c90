package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	pathoram "repro"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/encrypt"
	"repro/internal/explore"
	"repro/internal/hierarchy"
	"repro/internal/membus"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// serverSpec decodes the workload's server flags with the server's own
// flag set, so the edge and engine legs build what oram-server builds.
func serverSpec(w *workload, blocks uint64, dir string) (pathoram.Spec, error) {
	var sf explore.SpecFlags
	fs := flag.NewFlagSet(w.name, flag.ContinueOnError)
	sf.AddFlags(fs)
	shards := fs.Int("shards", 1, "")
	args := append([]string{"-blocks", strconv.FormatUint(blocks, 10), "-blocksize", strconv.Itoa(blockSize)}, w.serverFlags...)
	if w.fileStorage {
		args = append(args, "-dir", dir)
	}
	if err := fs.Parse(args); err != nil {
		return pathoram.Spec{}, err
	}
	if err := sf.CheckExplicit(explore.Explicit(fs)); err != nil {
		return pathoram.Spec{}, err
	}
	return sf.Spec(*shards)
}

// engineConfig is what an engine builder needs.
type engineConfig struct {
	spec  pathoram.Spec
	seed  int64
	dir   string // per-run scratch (file storage)
	epoch time.Time
}

// engineSet is one workload's engine leg: per shard, the hand-built
// traced engine and the library-built reference engine, each recording
// its leaf sequence while recording is on.
type engineSet struct {
	traced, ref     []shard.Engine
	tracers         []*tracer
	handRec, refRec []*leafRec
	handStats       func(s int) (core.Stats, *membus.Stats)
	refStats        func(s int) (core.Stats, *membus.Stats)
	closers         []func() error
	localBlocks     uint64
	waits           *waitBook
	shards          int
}

// close closes both stacks once; later calls do nothing.
func (e *engineSet) close() error {
	var errs []error
	for _, c := range e.closers {
		errs = append(errs, c())
	}
	e.closers = nil
	return errors.Join(errs...)
}

// leafRec records an OnPathAccess sequence (level in the top byte).
type leafRec struct {
	on  bool
	seq []uint64
}

func (r *leafRec) hook(level int, leaf uint64) {
	if r.on {
		r.seq = append(r.seq, uint64(level)<<56|leaf)
	}
}

// shardKey derives a per-shard AES key from the seed; the hand-built
// and reference trees of a shard share it, so their ciphertexts agree.
func shardKey(seed int64, s int) []byte {
	var in [16]byte
	binary.LittleEndian.PutUint64(in[:], uint64(seed))
	binary.LittleEndian.PutUint64(in[8:], uint64(s))
	sum := sha256.Sum256(in[:])
	return sum[:encrypt.KeySize]
}

func shardSeed(seed int64, s int) int64 { return seed*7919 + int64(s) + 1 }

// accessor is the engine surface core.ORAM and hierarchy.ORAM share.
type accessor interface {
	Access(addr uint64, op core.Op, data []byte) ([]byte, error)
	ReadInto(addr uint64, dst []byte) (bool, error)
	Update(addr uint64, fn func(data []byte)) error
	Load(addr uint64) ([]byte, bool, []core.Slot, error)
	Store(addr uint64, data []byte) error
	PaddingAccess() error
	StepBackground(allowEviction bool) (core.BackgroundWork, error)
	Flush() error
}

// coreEngine adapts an accessor to shard.Engine.
type coreEngine struct{ accessor }

func (e coreEngine) Read(addr uint64) ([]byte, error) { return e.Access(addr, core.OpRead, nil) }

func (e coreEngine) Write(addr uint64, data []byte) error {
	_, err := e.Access(addr, core.OpWrite, data)
	return err
}

// refEngine adapts a library client to shard.Engine; the benchmark
// never checks blocks out, so Load is not needed.
type refEngine struct{ pathoram.Client }

func (refEngine) Load(uint64) ([]byte, bool, []core.Slot, error) {
	return nil, false, nil, errors.New("perfbench: Load is not used")
}

func newEngineSet(spec pathoram.Spec) *engineSet {
	shards := spec.Shards
	if shards < 1 {
		shards = 1
	}
	e := &engineSet{shards: shards, localBlocks: spec.Blocks / uint64(shards), waits: newWaitBook()}
	for s := 0; s < shards; s++ {
		e.handRec = append(e.handRec, &leafRec{on: true})
		e.refRec = append(e.refRec, &leafRec{on: true})
	}
	return e
}

// buildFlat builds one flat tree per shard: core.ORAM over an
// on-chip position map and an encrypt.Store, whose buckets live in a
// memory arena or in a tree file under a WAL. Its reference is
// pathoram.New with the same key and seeded Rand.
func buildFlat(cfg engineConfig) (*engineSet, error) {
	spec := cfg.spec
	if spec.PosMap != pathoram.PosMapOnChip || spec.Encryption != pathoram.EncryptCounter ||
		spec.Backend == pathoram.BackendDRAM || spec.AsyncEviction {
		return nil, fmt.Errorf("buildFlat: unsupported spec")
	}
	e := newEngineSet(spec)
	var handORAMs []*core.ORAM
	var refORAMs []*pathoram.ORAM
	e.handStats = func(s int) (core.Stats, *membus.Stats) { return handORAMs[s].Stats(), nil }
	e.refStats = func(s int) (core.Stats, *membus.Stats) { return refORAMs[s].Stats(), nil }
	for s := 0; s < e.shards; s++ {
		t := newTracer(cfg.epoch)
		e.tracers = append(e.tracers, t)
		key := shardKey(cfg.seed, s)
		refRec := e.refRec[s]
		rc := pathoram.Config{
			Blocks: e.localBlocks, BlockSize: spec.BlockSize,
			Encryption: pathoram.EncryptCounter, Key: key, Integrity: spec.Integrity,
			ConstantTimeStash: spec.ConstantTimeStash,
			Rand:              rand.New(rand.NewSource(shardSeed(cfg.seed, s))),
			OnPathAccess:      func(leaf uint64) { refRec.hook(0, leaf) },
		}
		if spec.Backend == pathoram.BackendFile {
			rc.Backend = pathoram.BackendFile
			rc.Dir = filepath.Join(cfg.dir, fmt.Sprintf("ref-%d", s))
			rc.WAL, rc.WALDepth = spec.WAL, spec.WALDepth
		}
		ref, err := pathoram.New(rc)
		if err != nil {
			e.close()
			return nil, err
		}
		refORAMs = append(refORAMs, ref)
		e.closers = append(e.closers, ref.Close)
		e.ref = append(e.ref, refEngine{ref})

		leafLevel := ref.LeafLevel()
		tree := treemath.New(leafLevel)
		const z = 3
		scheme, err := encrypt.NewCounterScheme(key, tree.NumBuckets())
		if err != nil {
			e.close()
			return nil, err
		}
		stride := encrypt.PaddedBucketBytes(scheme, z, spec.BlockSize)
		var back storage.Storage
		if spec.Backend == pathoram.BackendFile {
			dir := filepath.Join(cfg.dir, fmt.Sprintf("hand-%d", s))
			if back, err = openFileStack(dir, tree.NumBuckets(), stride, spec, t); err != nil {
				e.close()
				return nil, err
			}
		} else {
			mem, err := storage.NewMem(tree.NumBuckets(), stride)
			if err != nil {
				e.close()
				return nil, err
			}
			back = storageW{Storage: mem, t: t, outer: true}
		}
		e.closers = append(e.closers, back.Close)
		scfg := encrypt.StoreConfig{LeafLevel: leafLevel, Z: z, BlockBytes: spec.BlockSize, Scheme: scheme, Backing: back}
		if spec.Integrity {
			scfg.Auth = encrypt.NewAuthTree(leafLevel, z, spec.BlockSize, scheme)
		}
		es, err := encrypt.NewStore(scfg)
		if err != nil {
			e.close()
			return nil, err
		}
		handRec := e.handRec[s]
		src := core.NewMathLeafSource(rand.New(rand.NewSource(shardSeed(cfg.seed, s))))
		params := core.Params{
			LeafLevel: leafLevel, Z: z, BlockBytes: spec.BlockSize, Blocks: e.localBlocks,
			StashCapacity: 200, SuperBlock: 1, BackgroundEviction: true,
			ConstantTimeStash: spec.ConstantTimeStash,
			OnPathAccess:      func(leaf uint64, _ core.AccessKind) { handRec.hook(0, leaf) },
		}
		pos, err := core.NewOnChipPositionMap(params.Groups(), tree.NumLeaves(), src)
		if err != nil {
			e.close()
			return nil, err
		}
		o, err := core.New(params, pathW{inner: es, t: t, read: lEncRead, write: lEncWrite}, posMapW{inner: pos, t: t}, src)
		if err != nil {
			e.close()
			return nil, err
		}
		handORAMs = append(handORAMs, o)
		e.traced = append(e.traced, engineW{Engine: coreEngine{o}, t: t, waits: e.waits})
	}
	return e, nil
}

// openFileStack opens the tree file (and the WAL over it) the way the
// file backend does, with a timing wrapper at each storage.Storage.
func openFileStack(dir string, numBuckets uint64, stride int, spec pathoram.Spec, t *tracer) (storage.Storage, error) {
	base := filepath.Join(dir, "oram")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := storage.OpenFile(base+".tree", numBuckets, stride)
	if err != nil {
		return nil, err
	}
	if !spec.WAL {
		return storageW{Storage: f, t: t, outer: true}, nil
	}
	wal, err := storage.OpenWAL(storageW{Storage: f, t: t}, base+".wal", storage.WALConfig{CheckpointEvery: spec.WALDepth})
	if err != nil {
		f.Close()
		return nil, err
	}
	return storageW{Storage: wal, t: t, outer: true}, nil
}

// buildRecursive builds the hierarchy of one shard through
// hierarchy.New: every level's store is a core.MemStore under a
// core.TimedStore on its own port of one FR-FCFS bus, chained in
// modeled time like pathoram.NewHierarchy's serial (Figure 5(a)) clock.
// Its reference is pathoram.NewHierarchy with the same seeded Rand.
func buildRecursive(cfg engineConfig) (*engineSet, error) {
	spec := cfg.spec
	if spec.PosMap != pathoram.PosMapRecursive || spec.Backend != pathoram.BackendDRAM ||
		spec.Encryption != pathoram.EncryptNone || spec.Shards > 1 || spec.Overlap != 0 || spec.AsyncEviction ||
		spec.ConstantTimeStash || spec.DRAMLayout != pathoram.LayoutSubtree || spec.DRAMSerialize {
		return nil, fmt.Errorf("buildRecursive: unsupported spec")
	}
	e := newEngineSet(spec)
	refRec, handRec := e.refRec[0], e.handRec[0]
	ref, err := pathoram.NewHierarchy(pathoram.HierarchyConfig{
		Blocks: e.localBlocks, BlockSize: spec.BlockSize,
		PosBlockSize: spec.PosBlockSize, OnChipPosMapMax: spec.OnChipPosMapMax,
		Encryption: pathoram.EncryptNone, PLBBytes: spec.PLBBytes,
		Backend: pathoram.BackendDRAM, DRAMChannels: spec.DRAMChannels, DRAMSched: spec.DRAMSched,
		DRAMQueueDepth: spec.DRAMQueueDepth, DRAMStarveCap: spec.DRAMStarveCap,
		Rand:         rand.New(rand.NewSource(shardSeed(cfg.seed, 0))),
		OnPathAccess: refRec.hook,
	})
	if err != nil {
		return nil, err
	}
	e.ref = append(e.ref, refEngine{ref})
	e.closers = append(e.closers, ref.Close)

	policy := dram.SchedInOrder
	if spec.DRAMSched == pathoram.MemSchedFRFCFS {
		policy = dram.SchedFRFCFS
	}
	bus, err := membus.New(membus.Config{
		Channels: spec.DRAMChannels, Layout: membus.LayoutSubtree,
		Sched: dram.SchedConfig{Policy: policy, QueueDepth: spec.DRAMQueueDepth, StarvationCap: spec.DRAMStarveCap},
	})
	if err != nil {
		return nil, err
	}
	t := newTracer(cfg.epoch)
	e.tracers = append(e.tracers, t)
	clock := &chainClock{}
	var ports []*membus.Port
	factory := func(level, leafLevel, z, blockBytes int) (core.PathStore, error) {
		ms, err := core.NewMemStore(leafLevel, z, blockBytes)
		if err != nil {
			return nil, err
		}
		port, err := bus.AttachShard(leafLevel, plainBusBytes(z, blockBytes))
		if err != nil {
			return nil, err
		}
		ports = append(ports, port)
		inner, outer := lMemData, lTimedData
		if level > 0 {
			inner, outer = lMemPos, lTimedPos
		}
		ts, err := core.NewTimedStore(pathW{inner: ms, t: t, read: inner, write: inner}, &levelTimer{port: port, clock: clock})
		if err != nil {
			return nil, err
		}
		return pathW{inner: ts, t: t, read: outer, write: outer}, nil
	}
	h, err := hierarchy.New(hierarchy.Config{
		Blocks: e.localBlocks, DataBlockBytes: spec.BlockSize, DataZ: 3, PosZ: 3,
		PosBlockBytes: spec.PosBlockSize, OnChipPosMapMax: spec.OnChipPosMapMax,
		StashCapacity: 200, BackgroundEviction: true,
		NewStore:     factory,
		Leaves:       core.NewMathLeafSource(rand.New(rand.NewSource(shardSeed(cfg.seed, 0)))),
		PLBBytes:     spec.PLBBytes,
		OnPathAccess: func(level int, leaf uint64, _ core.AccessKind) { handRec.hook(level, leaf) },
	})
	if err != nil {
		return nil, err
	}
	e.traced = append(e.traced, engineW{Engine: coreEngine{h}, t: t, waits: e.waits})
	e.closers = append(e.closers, h.Flush)
	e.handStats = func(int) (core.Stats, *membus.Stats) {
		var st core.Stats
		for _, l := range h.Stats() {
			st = st.Merge(l)
		}
		var ts membus.Stats
		for _, p := range ports {
			ts = ts.Merge(p.Stats())
		}
		return st, &ts
	}
	e.refStats = func(int) (core.Stats, *membus.Stats) {
		ts, _ := ref.TimingStats()
		return ref.Stats(), &ts
	}
	return e, nil
}

// plainBusBytes is the bus footprint of one plaintext bucket: its
// serialization padded to the DRAM access granularity.
func plainBusBytes(z, blockBytes int) int {
	raw := encrypt.PlainBucketBytes(z, blockBytes)
	if r := raw % encrypt.PadGranularity; r != 0 {
		raw += encrypt.PadGranularity - r
	}
	return raw
}

// chainClock and levelTimer chain a hierarchy's per-level ports in
// modeled time: a level's path is named by the access before it, so its
// stage may not arrive before that access completed.
type chainClock struct{ at uint64 }

type levelTimer struct {
	port  *membus.Port
	clock *chainClock
}

func (t *levelTimer) ReadPath(leaf uint64, skip []bool) {
	t.port.AdvanceTo(t.clock.at)
	t.port.ReadPath(leaf, skip)
	t.clock.at = max(t.clock.at, t.port.ReadyAt())
}

func (t *levelTimer) WritePath(leaf uint64, deferred bool) {
	t.port.AdvanceTo(t.clock.at)
	t.port.WritePath(leaf, deferred)
	t.clock.at = max(t.clock.at, t.port.ReadyAt())
}

// sameProgram compares the two stacks after the lockstep phase: leaf
// sequences, Stats and (on the timed backend) modeled timing must agree
// exactly.
func (e *engineSet) sameProgram() error {
	for s := 0; s < e.shards; s++ {
		h, r := e.handRec[s].seq, e.refRec[s].seq
		if len(h) == 0 || len(h) != len(r) {
			return fmt.Errorf("shard %d: hand-built tree touched %d paths, library tree %d", s, len(h), len(r))
		}
		for i := range h {
			if h[i] != r[i] {
				return fmt.Errorf("shard %d: leaf sequences differ at access %d", s, i)
			}
		}
		hs, ht := e.handStats(s)
		rs, rt := e.refStats(s)
		if hs != rs {
			return fmt.Errorf("shard %d: Stats differ:\nhand %+v\nlib  %+v", s, hs, rs)
		}
		if !reflect.DeepEqual(ht, rt) {
			return fmt.Errorf("shard %d: modeled timing differs:\nhand %+v\nlib  %+v", s, ht, rt)
		}
	}
	for s := range e.handRec {
		e.handRec[s].on, e.handRec[s].seq = false, nil
		e.refRec[s].on, e.refRec[s].seq = false, nil
	}
	return nil
}

// stepBoth applies one op to both stacks of its shard and checks both
// read results against the shadow.
func (e *engineSet) stepBoth(g *connGen, p planned, buf, want, got []byte) error {
	addr := g.addr(p.idx)
	s, local := int(addr%uint64(e.shards)), addr/uint64(e.shards)
	exp := payload(addr, p.ver, want)
	if p.write {
		if err := e.traced[s].Write(local, exp); err != nil {
			return err
		}
		return e.ref[s].Write(local, exp)
	}
	if _, err := e.traced[s].ReadInto(local, buf); err != nil {
		return err
	}
	if _, err := e.ref[s].ReadInto(local, got); err != nil {
		return err
	}
	if !bytes.Equal(buf, exp) || !bytes.Equal(got, exp) {
		return fmt.Errorf("lockstep read of %d: hand-built %x, library %x, want %x", addr, buf[:16], got[:16], exp[:16])
	}
	return nil
}
