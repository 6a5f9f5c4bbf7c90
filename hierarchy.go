package pathoram

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/membus"
	"repro/internal/storage"
)

// HierarchyConfig describes a hierarchical Path ORAM (Section 2.3): the
// data ORAM's position map lives in a second ORAM, recursively, until the
// final map fits on-chip.
type HierarchyConfig struct {
	// Blocks is the number of addressable data blocks.
	Blocks uint64
	// BlockSize is the data ORAM's block size in bytes (128 in the paper;
	// 0 = metadata-only data ORAM for simulation).
	BlockSize int
	// DataZ / PosZ are bucket capacities (paper: DZ3Pb32 uses 3 and 3).
	DataZ, PosZ int
	// PosBlockSize is the position-map ORAM block size (Section 3.3.3;
	// the paper's best practical choice is 32 bytes).
	PosBlockSize int
	// OnChipPosMapMax bounds the final on-chip position map in bytes
	// (default 200 KB, Section 4.1.5).
	OnChipPosMapMax uint64
	// Utilization sizes the data ORAM tree (default 0.5).
	Utilization float64
	// SuperBlockSize statically merges adjacent data blocks.
	SuperBlockSize int
	// StashCapacity is C per ORAM (default 200).
	StashCapacity int
	// Encryption selects the bucket encryption for every level. Each
	// level gets an independent key derived from Key so one-time pads are
	// never shared across trees.
	Encryption Encryption
	// Key is the 16-byte master key (random if nil).
	Key []byte
	// Integrity enables a Section 5 authentication tree per level.
	Integrity bool
	// ConstantTimeStash enables fixed-length masked stash scans on every
	// level of the chain (see Config.ConstantTimeStash).
	ConstantTimeStash bool
	// AsyncEviction enables the staged access path on every level of the
	// chain: Read/Write/Update return once every level's path has been
	// read and merged and its eviction placement computed; the write-back
	// I/O of all levels is deferred onto bounded per-level queues, drained
	// by StepBackground (shard workers call it automatically) and Flush.
	// Stash and position-map state stay bit-identical to the synchronous
	// protocol; logical contents are never stale.
	AsyncEviction bool
	// MaxDeferredWriteBacks caps each level's deferred write-back queue
	// under AsyncEviction (default core.DefaultMaxDeferredWriteBacks).
	// With BackendDRAM each level's queue is that tree's modeled
	// write-buffer depth, exactly as for a flat ORAM.
	MaxDeferredWriteBacks int
	// Backend selects the bucket storage backend for every level (default
	// BackendMem). BackendDRAM attaches one membus port per level — every
	// ORAM of the chain owns a disjoint row-aligned region of one shared
	// DDR3 model — so TimingStats reports modeled cycles for the live
	// recursive traffic: H path reads and H write-backs per access, in
	// chain order (the Figure 5(a) serialized ordering within an access;
	// different shards of a sharded deployment still overlap).
	Backend Backend
	// DRAMChannels is the number of independent DDR3 channels under
	// BackendDRAM (default 2). Inside a sharded deployment every shard —
	// and every level of every shard — shares one memory system.
	DRAMChannels int
	// DRAMLayout selects the bucket-to-row placement under BackendDRAM
	// (default LayoutSubtree).
	DRAMLayout DRAMLayout
	// DRAMSerialize is the no-overlap modeling baseline (see
	// Config.DRAMSerialize).
	DRAMSerialize bool
	// DRAMSched, DRAMQueueDepth, DRAMStarveCap select the controller's
	// command scheduling (see Config.DRAMSched): in-order issue or the
	// open FR-FCFS queue, shared by every level of the chain.
	DRAMSched      MemSched
	DRAMQueueDepth int
	DRAMStarveCap  int
	// PLBBytes provisions the position-map lookaside cache of Section
	// 3.3.3: a small set-associative write-back LRU of group→leaf labels
	// in front of every position-map interface (the byte budget splits
	// evenly across them). A hit makes the cached label authoritative and
	// skips the backing access and every smaller ORAM above it — the
	// chain-shortening acceleration the paper pairs with recursion. Dirty
	// evictions and Flush write the exact cached label back, so logical
	// state stays bit-identical to the uncached protocol. 0 disables.
	PLBBytes uint64
	// PLBConstantShape pads every PLB hit with dummy-shaped accesses to
	// the elided levels so hits and misses are indistinguishable on the
	// wire — the oblivious endpoint of the PLB axis (see SECURITY.md; the
	// default leaks chain length per access). Requires PLBBytes > 0.
	PLBConstantShape bool
	// Overlap enables the Figure 5(b) speculative cross-request overlap
	// under BackendDRAM: the chain scheduler keeps the last Overlap
	// rounds' data-ORAM completions in a window, and a new round's
	// smallest-ORAM stages may issue as soon as the oldest windowed round
	// completed — request t+1's posmap walk overlaps request t's data
	// access. Within one round the Figure 5(a) dependency is preserved: a
	// level never issues before the posmap stage that named its path
	// completed. Each level's port also accepts two stages in flight, so
	// one round's write-back overlaps the next round's read of the same
	// tree. 0 keeps the strictly serial 5(a) chain clock. Requires
	// BackendDRAM without DRAMSerialize.
	Overlap int
	// Dir is the directory holding the per-level tree (and WAL) files
	// under BackendFile: every ORAM of the chain persists in its own
	// file, named <prefix>-l<level>. Required there, rejected elsewhere.
	Dir string
	// WAL wraps every level's tree file in a write-ahead log under
	// BackendFile (see Config.WAL); WALDepth bounds each log between
	// Flushes (see Config.WALDepth).
	WAL      bool
	WALDepth int
	// Rand makes the construction deterministic (simulation only).
	Rand *rand.Rand
	// OnPathAccess, when set, observes every path access in the whole
	// chain, in order: level 0 is the data ORAM, higher levels the
	// recursively smaller position-map ORAMs. This is the adversary's
	// full view of one hierarchy's traffic. It runs synchronously on the
	// accessing goroutine.
	OnPathAccess func(level int, leaf uint64)
}

// Hierarchy is a hierarchical Path ORAM. Like ORAM it is single-threaded —
// one goroutine owns it — and satisfies Client: the sharded serving layer
// can run one Hierarchy per shard behind its request scheduler (see Open
// with PosMap: PosMapRecursive).
type Hierarchy struct {
	inner  *hierarchy.ORAM
	blocks uint64
	// ports holds one membus port per level under BackendDRAM (attach
	// order: smallest position-map ORAM first, data ORAM last — the
	// construction order of the chain).
	ports []*membus.Port
	// footprints collects the per-level external-memory accountants.
	footprints []interface{ MemoryBytes() uint64 }
	// persists holds each level's durable storage under BackendFile, in
	// construction order: Flush syncs them all, Close closes them all.
	persists []storage.Storage
}

// chainSched is the modeled clock of one hierarchy's recursion chain. In
// the default 5(a) mode it is a single monotone clock (chain): every stage
// of every round arrives after the previous stage completed — the strictly
// serial ordering of Figure 5(a). In overlap mode (Figure 5(b)) it keeps
// two pieces of state instead: dep, the completion of the most recent read
// within the current round (the naming dependency — a level's path address
// comes out of the posmap read before it, so its read may not arrive
// earlier); and ring, the data-ORAM completions of the last depth rounds.
// beginRound resets dep to the oldest windowed completion, so a new
// round's smallest-ORAM stages issue while up to depth-1 earlier rounds
// are still in their data stages — cross-request speculation bounded by
// the window. All state is owned by the hierarchy's single goroutine.
type chainSched struct {
	overlap bool
	chain   uint64   // 5(a): shared serial clock
	dep     uint64   // 5(b): naming dependency within the current round
	ring    []uint64 // 5(b): last depth rounds' data-stage completions
	head    int
}

// beginRound opens a new chain round: the round's first stage may issue as
// soon as the oldest in-window round has completed its data stage.
func (s *chainSched) beginRound() {
	if s.overlap {
		s.dep = s.ring[s.head]
	}
}

func (s *chainSched) noteData(done uint64) {
	s.ring[s.head] = done
	s.head = (s.head + 1) % len(s.ring)
}

// levelTimer chains one hierarchy level's port onto the chain's scheduler:
// within one round, a level's path is named by the position-map access
// that preceded it, so its read must not arrive in modeled time before
// that access completed — even though every level keeps its own port (and
// physical region). Flat shards get the same serialization for free from
// their single port's readyAt; this is the multi-port generalization. In
// overlap mode only reads advance the dependency (a write-back publishes
// no label), so one level's write-back overlaps the next level's read —
// and across rounds the scheduler's window lets consecutive requests
// pipeline. The scheduler is owned by the hierarchy's single goroutine;
// the port methods take the bus lock.
type levelTimer struct {
	port     *membus.Port
	sched    *chainSched
	level    int
	lastRead uint64 // this level's latest read completion (overlap mode)
}

func (t *levelTimer) ReadPath(leaf uint64, skip []bool) {
	if !t.sched.overlap {
		t.port.AdvanceTo(t.sched.chain)
		t.port.ReadPath(leaf, skip)
		if r := t.port.ReadyAt(); r > t.sched.chain {
			t.sched.chain = r
		}
		return
	}
	t.port.AdvanceTo(t.sched.dep)
	t.port.ReadPath(leaf, skip)
	done := t.port.ReadyAt()
	t.lastRead = done
	if done > t.sched.dep {
		t.sched.dep = done
	}
	if t.level == 0 {
		t.sched.noteData(done)
	}
}

func (t *levelTimer) WritePath(leaf uint64, deferred bool) {
	if !t.sched.overlap {
		t.port.AdvanceTo(t.sched.chain)
		t.port.WritePath(leaf, deferred)
		if r := t.port.ReadyAt(); r > t.sched.chain {
			t.sched.chain = r
		}
		return
	}
	// A write-back depends only on its own round's read of the same tree
	// (the path content it rewrites); it publishes nothing the chain below
	// waits for, so it does not advance dep.
	t.port.AdvanceTo(t.lastRead)
	t.port.WritePath(leaf, deferred)
}

// NewHierarchy builds the chain. Every ORAM in it — the data ORAM and all
// position-map ORAMs — gets its own store with the configured encryption
// and (optionally) integrity layer, and background eviction is coordinated
// across the chain exactly as in Section 3.1.1. Under BackendDRAM every
// level also gets its own port on the (shared or private) memory bus.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	return newHierarchy(Config{
		Blocks: cfg.Blocks, BlockSize: cfg.BlockSize, Z: cfg.DataZ,
		Utilization: cfg.Utilization, SuperBlockSize: cfg.SuperBlockSize,
		StashCapacity: cfg.StashCapacity, ConstantTimeStash: cfg.ConstantTimeStash,
		Encryption: cfg.Encryption, Key: cfg.Key, Integrity: cfg.Integrity,
		AsyncEviction: cfg.AsyncEviction, MaxDeferredWriteBacks: cfg.MaxDeferredWriteBacks,
		Backend: cfg.Backend, DRAMChannels: cfg.DRAMChannels, DRAMLayout: cfg.DRAMLayout,
		DRAMSerialize: cfg.DRAMSerialize, DRAMSched: cfg.DRAMSched,
		DRAMQueueDepth: cfg.DRAMQueueDepth, DRAMStarveCap: cfg.DRAMStarveCap,
		Dir: cfg.Dir, WAL: cfg.WAL, WALDepth: cfg.WALDepth, Rand: cfg.Rand,
	}, chainConfig{
		posZ: cfg.PosZ, posBlockSize: cfg.PosBlockSize, onChipPosMapMax: cfg.OnChipPosMapMax,
		plbBytes: cfg.PLBBytes, plbConstantShape: cfg.PLBConstantShape, overlap: cfg.Overlap,
		onPathAccess: cfg.OnPathAccess,
	})
}

// chainConfig is the recursion half of a hierarchy's construction — the
// HierarchyConfig knobs a flat tree lacks. The tree half is a Config: the
// data ORAM's geometry and everything every level shares.
type chainConfig struct {
	posZ, posBlockSize        int
	onChipPosMapMax, plbBytes uint64
	plbConstantShape          bool
	overlap                   int
	onPathAccess              func(level int, leaf uint64)
}

// newHierarchy builds a chain from its tree template c and recursion knobs
// ch; NewHierarchy and Open's recursive shards both come through here.
func newHierarchy(c Config, ch chainConfig) (*Hierarchy, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if ch.posZ == 0 {
		ch.posZ = 3
	}
	if ch.posBlockSize == 0 {
		ch.posBlockSize = 32
	}
	if ch.overlap < 0 {
		return nil, fmt.Errorf("pathoram: Overlap must be >= 0")
	}
	if ch.overlap > 0 {
		if c.Backend != BackendDRAM {
			return nil, fmt.Errorf("pathoram: Overlap schedules modeled memory time; set Backend: BackendDRAM")
		}
		if c.DRAMSerialize {
			return nil, fmt.Errorf("pathoram: Overlap and DRAMSerialize are contradictory schedules; drop one")
		}
	}
	// Under BackendDRAM every level gets its own port on one bus: the
	// injected shared one (sharded deployments) or a private one.
	if err := c.ensureBus(); err != nil {
		return nil, err
	}
	h := &Hierarchy{blocks: c.Blocks}
	sched := &chainSched{overlap: ch.overlap > 0}
	if sched.overlap {
		sched.ring = make([]uint64, ch.overlap)
	}
	factory := func(level int, leafLevel, z, blockBytes int) (core.PathStore, error) {
		lc := c
		lc.LeafLevel, lc.Z, lc.BlockSize = leafLevel, z, blockBytes
		lc.storeName = fmt.Sprintf("%s-l%d", c.storeName, level)
		if !lc.plain() {
			key, err := deriveKey(c.Key, level)
			if err != nil {
				return nil, err
			}
			lc.Key = key
		}
		t, err := lc.openStack(func(port *membus.Port) core.PathTimer {
			if sched.overlap {
				// Two stages in flight per tree: one round's write-back and
				// the next round's read of the same level may coexist.
				port.SetMaxInFlight(2)
			}
			return &levelTimer{port: port, sched: sched, level: level}
		})
		if err != nil {
			return nil, err
		}
		if t.persist != nil {
			h.persists = append(h.persists, t.persist)
		}
		if t.footprint != nil {
			h.footprints = append(h.footprints, t.footprint)
		}
		if t.port != nil {
			h.ports = append(h.ports, t.port)
		}
		return t.store, nil
	}

	hcfg := hierarchy.Config{
		Blocks:                c.Blocks,
		DataBlockBytes:        c.BlockSize,
		DataZ:                 c.Z,
		PosZ:                  ch.posZ,
		DataUtilization:       c.Utilization,
		PosBlockBytes:         ch.posBlockSize,
		OnChipPosMapMax:       ch.onChipPosMapMax,
		SuperBlock:            c.SuperBlockSize,
		StashCapacity:         c.StashCapacity,
		BackgroundEviction:    true,
		DeferWriteBack:        c.AsyncEviction,
		MaxDeferredWriteBacks: c.MaxDeferredWriteBacks,
		ConstantTimeStash:     c.ConstantTimeStash,
		NewStore:              factory,
		Leaves:                c.leafSource(),
		PLBBytes:              ch.plbBytes,
		PLBConstantShape:      ch.plbConstantShape,
	}
	if sched.overlap {
		hcfg.OnRoundStart = sched.beginRound
	}
	if ch.onPathAccess != nil {
		hook := ch.onPathAccess
		hcfg.OnPathAccess = func(level int, leaf uint64, _ core.AccessKind) { hook(level, leaf) }
	}
	inner, err := hierarchy.New(hcfg)
	if err != nil {
		for _, p := range h.persists {
			p.Close()
		}
		return nil, err
	}
	h.inner = inner
	return h, nil
}

// deriveKey expands the master key into an independent per-level key
// (deriveSubKey in the hierarchy domain). Distinct levels therefore never
// share one-time pads even though bucket IDs repeat across trees.
func deriveKey(master []byte, level int) ([]byte, error) {
	return deriveSubKey(master, domainHierarchy, uint64(level))
}

// Read returns a copy of the data block at addr. One path access in every
// ORAM of the chain (position-map ORAMs first, Section 2.3).
func (h *Hierarchy) Read(addr uint64) ([]byte, error) {
	return h.inner.Access(addr, core.OpRead, nil)
}

// ReadInto reads the data block at addr into the caller-provided dst
// (BlockSize bytes), avoiding the per-read result allocation of Read.
// found reports whether the block was ever written.
func (h *Hierarchy) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	return h.inner.ReadInto(addr, dst)
}

// Write replaces the data block at addr.
func (h *Hierarchy) Write(addr uint64, data []byte) error {
	_, err := h.inner.Access(addr, core.OpWrite, data)
	return err
}

// Update applies fn to the block in one oblivious read-modify-write.
func (h *Hierarchy) Update(addr uint64, fn func(data []byte)) error {
	return h.inner.Update(addr, fn)
}

// Load is the exclusive read through the hierarchy (Section 3.3.1).
func (h *Hierarchy) Load(addr uint64) (data []byte, found bool, group []Block, err error) {
	data, found, slots, err := h.inner.Load(addr)
	if err != nil {
		return nil, false, nil, err
	}
	for _, s := range slots {
		group = append(group, Block{Addr: s.Addr, Data: s.Data})
	}
	return data, found, group, nil
}

// Store returns a checked-out block to the data ORAM's stash without any
// path access.
func (h *Hierarchy) Store(addr uint64, data []byte) error {
	return h.inner.Store(addr, data)
}

// ReadBatch reads every address, back to back on the calling goroutine (a
// single chain has no intra-batch parallelism; Sharded fans hierarchies
// out across shards), under the shared batch contract (see
// serialReadBatch).
func (h *Hierarchy) ReadBatch(addrs []uint64) ([][]byte, error) {
	return serialReadBatch(addrs, h.blocks, h.Read)
}

// WriteBatch writes data[i] to addrs[i], back to back on the calling
// goroutine, under the shared batch contract (see serialWriteBatch).
func (h *Hierarchy) WriteBatch(addrs []uint64, data [][]byte) error {
	return serialWriteBatch(addrs, data, h.blocks, h.Write)
}

// PaddingAccess performs one dummy-shaped access through the whole chain:
// one freshly drawn uniform path read and written back in every ORAM,
// smallest first — the same ORAMs in the same order as a real access, so
// an observer of the memory traffic cannot tell them apart. Counted as
// scheduler padding in every level's Stats.PaddingAccesses.
func (h *Hierarchy) PaddingAccess() error { return h.inner.PaddingAccess() }

// StepBackground performs one unit of deferred work — completing one
// pending path write-back on some level, or (when allowEviction is set
// and some stash sits above the idle low-water mark) issuing one
// coordinated dummy round through the whole chain — and reports which.
// Under AsyncEviction, call it whenever the hierarchy would otherwise sit
// idle; inside a Sharded the shard workers call it for you.
func (h *Hierarchy) StepBackground(allowEviction bool) (BackgroundWork, error) {
	return h.inner.StepBackground(allowEviction)
}

// Flush completes every level's deferred write-backs and fully drains
// coordinated background eviction, leaving the chain in a state the
// synchronous protocol could have produced. Under BackendFile it is also
// the durability epoch for every level's tree file (msync, WAL
// checkpoint). A no-op without AsyncEviction on volatile backends.
func (h *Hierarchy) Flush() error {
	if err := h.inner.Flush(); err != nil {
		return err
	}
	var first error
	for _, p := range h.persists {
		if err := p.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PendingWriteBacks returns the total deferred path write-backs across
// all levels not yet completed (always 0 without AsyncEviction).
func (h *Hierarchy) PendingWriteBacks() int { return h.inner.PendingWriteBacks() }

// Close quiesces the hierarchy (Flush). On volatile backends it does not
// invalidate the receiver — the chain owns no goroutines; Close is the
// Client interface's quiesce point. Under BackendFile it additionally
// checkpoints and closes every level's tree file (and WAL); the chain
// then rejects further I/O, and the first backend error is the one
// reported even when later levels close cleanly.
func (h *Hierarchy) Close() error {
	err := h.inner.Flush()
	for _, p := range h.persists {
		if e := p.Close(); err == nil {
			err = e
		}
	}
	return err
}

// NumORAMs returns H, the number of ORAMs in the chain.
func (h *Hierarchy) NumORAMs() int { return h.inner.NumORAMs() }

// OnChipPositionMapBytes returns the final position map's size.
func (h *Hierarchy) OnChipPositionMapBytes() uint64 { return h.inner.OnChipPosMapBytes() }

// OnChipBytes returns the total trusted-memory provision of the chain: the
// final on-chip position map, every level's stash bound, plus the PLB's
// tag/label arrays when one is provisioned. Recursion's whole point is
// shrinking the first term; the others grow with the chain — the
// explorer's on-chip-bytes objective captures all three.
func (h *Hierarchy) OnChipBytes() uint64 {
	return h.inner.OnChipPosMapBytes() + h.inner.StashBoundBytes() + h.inner.PLBOnChipBytes()
}

// PLBOnChipBytes returns the provisioned footprint of the position-map
// lookaside caches (0 without HierarchyConfig.PLBBytes).
func (h *Hierarchy) PLBOnChipBytes() uint64 { return h.inner.PLBOnChipBytes() }

// ChainLengthHist returns the chain-length histogram: entry n counts
// program operations whose oblivious access needed n ORAM path accesses.
// Without a PLB every operation lands on n = NumORAMs; PLB hits move mass
// to shorter chains, dirty-eviction write-backs to longer ones.
func (h *Hierarchy) ChainLengthHist() []uint64 { return h.inner.ChainLengthHist() }

// LevelStats returns per-level protocol counters (index 0 = data ORAM).
func (h *Hierarchy) LevelStats() []Stats { return h.inner.Stats() }

// Stats returns the aggregate protocol counters of the whole chain: every
// level's counters merged with core.Stats.Merge semantics (counters sum,
// stash peaks take the worst level). One program access contributes H
// RealAccesses — one per level — so DummyPerReal on the merged view is
// the per-path-access rate; DummyRounds/DummyPerReal report the paper's
// per-program-access Equation 2 factor.
func (h *Hierarchy) Stats() Stats {
	var merged Stats
	for _, s := range h.inner.Stats() {
		merged = merged.Merge(s)
	}
	return merged
}

// ResetStats clears every level's protocol counters and the coordinated
// dummy-round count (peak occupancies included; the BlocksInORAM gauges
// survive, as on ORAM).
func (h *Hierarchy) ResetStats() { h.inner.ResetStats() }

// StashSize returns the summed stash occupancy over every level.
func (h *Hierarchy) StashSize() int { return h.inner.StashSize() }

// ExternalMemoryBytes returns the summed external storage footprint of
// every level (0 for plain in-memory stores).
func (h *Hierarchy) ExternalMemoryBytes() uint64 {
	var total uint64
	for _, f := range h.footprints {
		total += f.MemoryBytes()
	}
	return total
}

// TimingStats returns the modeled memory-timing counters merged over the
// chain's per-level ports (counters sum, the completion frontier takes
// the max). The bool is false under BackendMem. Under AsyncEviction
// deferred write-back charges land on the flush schedule; snapshot after
// Flush for access-complete totals (Sharded's snapshots do this
// automatically).
func (h *Hierarchy) TimingStats() (TimingStats, bool) {
	if len(h.ports) == 0 {
		return TimingStats{}, false
	}
	var merged TimingStats
	for _, p := range h.ports {
		merged = merged.Merge(p.Stats())
	}
	return merged, true
}

// DummyRounds returns the number of coordinated background-eviction rounds.
func (h *Hierarchy) DummyRounds() uint64 { return h.inner.DummyRounds() }

// DummyPerReal returns the hierarchy-level DA/RA factor of Equation 2.
func (h *Hierarchy) DummyPerReal() float64 { return h.inner.DummyPerReal() }

// Layout describes the sized chain for reporting.
func (h *Hierarchy) Layout() []hierarchy.LevelInfo { return h.inner.Layout() }
