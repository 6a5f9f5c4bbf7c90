package pathoram

import (
	crand "crypto/rand"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/encrypt"
	"repro/internal/membus"
	"repro/internal/storage"
	"repro/internal/treemath"
)

// Encryption selects the randomized bucket-encryption scheme.
type Encryption int

const (
	// EncryptCounter is the counter-based scheme (Section 2.2.2):
	// 8 bytes of overhead per bucket. The default.
	EncryptCounter Encryption = iota
	// EncryptStrawman is the per-block random-key scheme (Section 2.2.1):
	// 16 bytes of overhead per block.
	EncryptStrawman
	// EncryptNone stores buckets in the clear. Only meaningful for
	// simulation and benchmarking: a real deployment must encrypt.
	EncryptNone
)

// Backend selects the storage backend behind each ORAM's bucket tree.
type Backend int

const (
	// BackendMem is the untimed default: buckets live in Go memory and
	// every access costs whatever the code costs. Right for functional
	// use and for measuring the implementation itself.
	BackendMem Backend = iota
	// BackendDRAM charges every bucket read and write to a shared
	// cycle-accurate DDR3 model (internal/membus + internal/dram): the
	// serving layer then reports modeled hardware cycles — the paper's
	// actual currency — alongside wall-clock numbers. Logical behavior is
	// bit-identical to BackendMem (timing is observation-only); see
	// DESIGN.md's "Timed serving layer".
	BackendDRAM
	// BackendFile persists each bucket tree in one flat mmap'd file under
	// Config.Dir (internal/storage.File): reads alias the mapping, writes
	// copy into it, and Flush is the durability epoch (msync). Combine
	// with Config.WAL for crash consistency of the deferred write-back
	// pipeline. Logical behavior is bit-identical to BackendMem.
	BackendFile
)

// DRAMLayout selects the bucket-to-physical-address placement under
// BackendDRAM (Section 3.3.4 of the paper).
type DRAMLayout int

const (
	// LayoutSubtree packs k-level subtrees into row-buffer-sized nodes
	// (Figure 6), raising the row-hit rate of path accesses. The default.
	LayoutSubtree DRAMLayout = iota
	// LayoutNaive stores buckets flat in heap order — the placement
	// baseline.
	LayoutNaive
)

// MemSched selects the memory controller's command scheduling under
// BackendDRAM (the open-queue axis of the design space).
type MemSched int

const (
	// MemSchedInOrder issues each channel's column accesses strictly in
	// arrival order, one in flight — the closed controller the model
	// started with, bit for bit. The default.
	MemSchedInOrder MemSched = iota
	// MemSchedFRFCFS holds an open per-channel command queue and issues
	// row-buffer hits first, then oldest (first-ready FCFS), with a
	// starvation cap bounding how long row hits may bypass the oldest
	// request — the DRAMSim2-class reordering the paper's design-space
	// numbers assume. See DRAMQueueDepth and DRAMStarveCap.
	MemSchedFRFCFS
)

// Stats re-exports the protocol counters.
type Stats = core.Stats

// TimingStats re-exports the modeled memory-timing counters
// (internal/membus.Stats) reported by DRAM-backed ORAMs.
type TimingStats = membus.Stats

// Block is a prefetched super-block member returned by Load.
type Block struct {
	Addr uint64
	Data []byte
}

// Config describes a single Path ORAM.
type Config struct {
	// Blocks is the number of addressable blocks (addresses 0..Blocks-1).
	Blocks uint64
	// BlockSize is the block payload in bytes. Zero selects metadata-only
	// mode (no payloads; useful for protocol simulation), which forces
	// EncryptNone.
	BlockSize int
	// Z is the bucket capacity (default 3, the paper's sweet spot for
	// large ORAMs; small ORAMs may prefer 2 — see Figure 9).
	Z int
	// Utilization sizes the tree: Blocks / (Z * bucket count) (default
	// 0.5, Section 4.1.3). Ignored when LeafLevel is set.
	Utilization float64
	// LeafLevel overrides the derived tree depth when > 0.
	LeafLevel int
	// StashCapacity is C in blocks (default 200, Section 4.1.2). The
	// background eviction of Section 3.1 keeps occupancy at or below
	// C - Z(L+1) between accesses, so the stash cannot overflow.
	StashCapacity int
	// SuperBlockSize statically merges groups of adjacent blocks
	// (Section 3.2). 0 or 1 disables merging.
	SuperBlockSize int
	// Encryption selects the bucket encryption (default counter-based).
	Encryption Encryption
	// Key is the 16-byte processor secret key; a fresh random key is
	// drawn when nil (the paper draws a new key per program run to
	// defeat replay of old ciphertexts).
	Key []byte
	// Integrity enables the Section 5 authentication tree: every path
	// read is verified for authenticity and freshness.
	Integrity bool
	// DisableBackgroundEviction turns off automatic dummy accesses
	// (simulation only: the stash can then overflow, which is Path ORAM
	// failure).
	DisableBackgroundEviction bool
	// AsyncEviction enables the staged access path: Read/Write/Update
	// return as soon as the path has been read and merged and the eviction
	// placement computed; the write-back I/O (serialization, encryption,
	// authentication, store write) is deferred onto a bounded queue, and
	// stash draining is expected to happen in idle time. Someone must
	// drain: inside a Sharded the shard workers do it automatically during
	// idle queue time; a standalone ORAM owner calls StepBackground (e.g.
	// between requests) and Flush when quiescing. Logical contents are
	// never stale — reads of paths with pending write-backs are served
	// from the write buffer — and the stash bound still holds: if deferred
	// work piles up faster than idle time drains it, draining falls back
	// inline, degrading to the synchronous protocol rather than failing.
	AsyncEviction bool
	// MaxDeferredWriteBacks caps the deferred write-back queue under
	// AsyncEviction (default core.DefaultMaxDeferredWriteBacks). With
	// BackendDRAM the queue is exactly the modeled memory controller's
	// write buffer, so this knob is the write-buffer-depth experiment:
	// deeper buffers group write-backs together (fewer read/write bus
	// turnarounds, more write-buffer read hits) at the price of more
	// pinned path copies. See EXPERIMENTS.md.
	MaxDeferredWriteBacks int
	// ConstantTimeStash replaces the stash's early-return lookup scans with
	// fixed-length, word-wide masked scans over a preallocated window,
	// so where — and whether — a block sits in the stash changes neither the
	// instruction count nor the memory-touch count of an access. This closes
	// the stash timing side channel of the secure-processor threat model
	// (see SECURITY.md); the ORAM's observable behavior is otherwise
	// bit-identical. Requires a bounded stash (the default StashCapacity
	// qualifies). Costs a full-window scan per lookup: with the default
	// C=200 stash this is a modest constant per access (about 1.3x the
	// default stash under counter encryption, see EXPERIMENTS.md).
	ConstantTimeStash bool
	// Backend selects the bucket storage backend (default BackendMem).
	// BackendDRAM wraps the store in a timed layer charging a shared
	// cycle-accurate DDR3 model; TimingStats then reports modeled cycles.
	Backend Backend
	// DRAMChannels is the number of independent DDR3 channels under
	// BackendDRAM (default 2; the paper sweeps 1/2/4).
	DRAMChannels int
	// DRAMLayout selects the bucket-to-row placement under BackendDRAM
	// (default LayoutSubtree, the paper's packed-subtree layout).
	DRAMLayout DRAMLayout
	// DRAMSerialize is a modeling baseline: issue every shard's memory
	// stages at the global completion frontier, forbidding any overlap
	// between different shards' path reads and write-backs. It exists so
	// the intra-access-overlap gain of the shared scheduler is measurable
	// (EXPERIMENTS.md); leave it false for the actual model.
	DRAMSerialize bool
	// DRAMSched selects the controller's command scheduling under
	// BackendDRAM: MemSchedInOrder (default) or MemSchedFRFCFS, the open
	// per-channel queue that reorders for row-buffer locality and
	// bank-level parallelism.
	DRAMSched MemSched
	// DRAMQueueDepth is the open-queue window per channel under
	// MemSchedFRFCFS (0 = default 8; depth 1 reproduces in-order issue
	// exactly).
	DRAMQueueDepth int
	// DRAMStarveCap bounds how many times younger row hits may bypass the
	// oldest queued request under MemSchedFRFCFS before it is forced
	// (0 = default 4).
	DRAMStarveCap int
	// Dir is the directory holding the tree (and WAL) files under
	// BackendFile. Required there, rejected elsewhere: a directory that
	// silently does nothing would be an inert knob.
	Dir string
	// WAL, under BackendFile, wraps the tree file in a write-ahead log
	// (internal/storage.WAL): every path write-back is logged before it
	// is acknowledged, Flush checkpoints the log into the tree file and
	// truncates it, and reopening after a crash replays the logged
	// prefix — the deferred write-back FIFO becomes crash-consistent.
	// Requires BackendFile (a WAL over volatile memory is an inert knob).
	WAL bool
	// WALDepth, when > 0, bounds the WAL between Flushes: after that many
	// logged path frames the log self-checkpoints. 0 checkpoints only on
	// Flush/Close. Requires WAL.
	WALDepth int
	// bus, when set, attaches this tree to an existing shared memory
	// scheduler instead of creating one — Open injects the bus it built so
	// all shards (and every level of a recursive shard) contend for the
	// same channels.
	bus *membus.Bus
	// storeName is the per-tree file-name prefix under BackendFile
	// ("oram" standalone; Open and NewHierarchy derive unique prefixes per
	// shard and per recursion level).
	storeName string
	// Rand, when set, makes all randomness (leaf selection, per-block
	// keys) deterministic for reproducible simulation. Production use
	// must leave it nil: leaves then come from crypto/rand.
	Rand *rand.Rand
	// OnPathAccess, when set, observes every path the ORAM touches, in
	// order, real and dummy alike — exactly the adversary's view of the
	// access sequence. Observability/test hook; it runs synchronously on
	// the accessing goroutine.
	OnPathAccess func(leaf uint64)
}

// validate applies the defaults and enforces the rules every tree shares —
// a flat ORAM, each hierarchy, each shard Open builds. It is the one place
// these rules live: New and NewHierarchy add only the rules of their own
// construction, and Open only the rules of Spec's composition axes.
func (c *Config) validate() error {
	if c.Blocks == 0 {
		return fmt.Errorf("pathoram: Blocks must be >= 1")
	}
	if c.Z == 0 {
		c.Z = 3
	}
	if c.Utilization == 0 {
		c.Utilization = 0.5
	}
	if !(c.Utilization > 0 && c.Utilization <= 1) { // also rejects NaN
		return fmt.Errorf("pathoram: utilization %v out of (0,1]", c.Utilization)
	}
	if c.StashCapacity == 0 {
		c.StashCapacity = 200
	}
	if c.Integrity && c.Encryption == EncryptNone {
		return fmt.Errorf("pathoram: integrity verification requires encryption (hashes cover ciphertexts)")
	}
	switch c.Backend {
	case BackendMem, BackendDRAM:
		if c.Dir != "" || c.WAL || c.WALDepth != 0 {
			return fmt.Errorf("pathoram: Dir/WAL/WALDepth parameterize the persistent backend; set Backend: BackendFile")
		}
	case BackendFile:
		if c.Dir == "" {
			return fmt.Errorf("pathoram: BackendFile needs Dir (where the tree files live)")
		}
		if c.BlockSize == 0 {
			return fmt.Errorf("pathoram: BackendFile persists payloads; metadata-only mode (BlockSize 0) has nothing to persist")
		}
		if !c.WAL && c.WALDepth != 0 {
			return fmt.Errorf("pathoram: WALDepth bounds the write-ahead log; set WAL: true")
		}
		if c.WALDepth < 0 {
			return fmt.Errorf("pathoram: WALDepth=%d must be >= 0", c.WALDepth)
		}
	default:
		return fmt.Errorf("pathoram: unknown backend %d", c.Backend)
	}
	if c.DRAMChannels < 0 {
		return fmt.Errorf("pathoram: DRAMChannels=%d must be >= 1", c.DRAMChannels)
	}
	if c.storeName == "" {
		c.storeName = "oram"
	}
	switch c.DRAMLayout {
	case LayoutSubtree, LayoutNaive:
	default:
		return fmt.Errorf("pathoram: unknown DRAM layout %d", c.DRAMLayout)
	}
	switch c.DRAMSched {
	case MemSchedInOrder, MemSchedFRFCFS:
	default:
		return fmt.Errorf("pathoram: unknown memory scheduler %d", c.DRAMSched)
	}
	if c.DRAMQueueDepth < 0 || c.DRAMStarveCap < 0 {
		return fmt.Errorf("pathoram: DRAMQueueDepth/DRAMStarveCap must be >= 0")
	}
	if c.DRAMSched != MemSchedFRFCFS && (c.DRAMQueueDepth != 0 || c.DRAMStarveCap != 0) {
		return fmt.Errorf("pathoram: DRAMQueueDepth/DRAMStarveCap parameterize the open queue; set DRAMSched: MemSchedFRFCFS")
	}
	if c.Key == nil {
		c.Key = make([]byte, encrypt.KeySize)
		if _, err := crand.Read(c.Key); err != nil {
			return fmt.Errorf("pathoram: drawing key: %w", err)
		}
	} else {
		// Copy so a caller mutating its slice afterwards cannot desync the
		// schemes built from it.
		c.Key = append([]byte(nil), c.Key...)
	}
	return nil
}

func (c *Config) leafSource() core.LeafSource {
	if c.Rand != nil {
		return core.NewMathLeafSource(c.Rand)
	}
	return core.NewCryptoLeafSource()
}

// plain reports whether the tree stores its buckets unencrypted:
// EncryptNone, or a metadata-only tree with no payloads to encrypt.
func (c *Config) plain() bool { return c.Encryption == EncryptNone || c.BlockSize == 0 }

// buildScheme constructs the encryption scheme for one tree.
func (c *Config) buildScheme(numBuckets uint64) (encrypt.Scheme, error) {
	switch c.Encryption {
	case EncryptCounter:
		return encrypt.NewCounterScheme(c.Key, numBuckets)
	case EncryptStrawman:
		if c.Rand != nil {
			return encrypt.NewStrawmanScheme(c.Key, c.Rand)
		}
		return encrypt.NewStrawmanScheme(c.Key, crand.Reader)
	default:
		return nil, fmt.Errorf("pathoram: scheme %d has no cipher", c.Encryption)
	}
}

// ORAM is a single Path ORAM with a private, oblivious block interface.
// It is single-threaded: one goroutine owns it (the sharded serving layer
// enforces exactly that ownership for its engines). It satisfies Client;
// the batch operations run their requests back to back on the calling
// goroutine.
type ORAM struct {
	cfg   Config
	inner *core.ORAM
	pos   *core.OnChipPositionMap

	footprint interface{ MemoryBytes() uint64 } // external bytes; nil for the plain in-memory store
	persist   storage.Storage                   // BackendFile: the tree (and WAL) file
	port      *membus.Port                      // BackendDRAM: the tree's window onto the bus
}

// treeStack is one tree's storage stack as openStack builds it.
type treeStack struct {
	store     core.PathStore                    // the top layer, which the protocol drives
	footprint interface{ MemoryBytes() uint64 } // external bytes; nil for the plain in-memory store
	persist   storage.Storage                   // BackendFile: the tree (and WAL) file
	port      *membus.Port                      // BackendDRAM: the tree's window onto the bus
}

// modeledBucketBytes returns the byte footprint one bucket occupies on the
// modeled memory bus: the actual external stride for encrypted stores, and
// the plaintext serialization (padded to the DRAM access granularity) for
// plain stores — metadata-only trees still move their headers.
func modeledBucketBytes(scheme encrypt.Scheme, z, blockBytes int) int {
	if scheme != nil {
		return encrypt.PaddedBucketBytes(scheme, z, blockBytes)
	}
	raw := encrypt.PlainBucketBytes(z, blockBytes)
	if r := raw % encrypt.PadGranularity; r != 0 {
		raw += encrypt.PadGranularity - r
	}
	return raw
}

// ensureBus gives a BackendDRAM construction its memory bus: the shared one
// Open injected, or a private one for a standalone tree or chain.
func (c *Config) ensureBus() error {
	if c.Backend != BackendDRAM || c.bus != nil {
		return nil
	}
	layout, policy := membus.LayoutSubtree, dram.SchedInOrder
	if c.DRAMLayout == LayoutNaive {
		layout = membus.LayoutNaive
	}
	if c.DRAMSched == MemSchedFRFCFS {
		policy = dram.SchedFRFCFS
	}
	bus, err := membus.New(membus.Config{
		Channels:  c.DRAMChannels,
		Layout:    layout,
		Serialize: c.DRAMSerialize,
		Sched:     dram.SchedConfig{Policy: policy, QueueDepth: c.DRAMQueueDepth, StarvationCap: c.DRAMStarveCap},
	})
	if err != nil {
		return err
	}
	c.bus = bus
	return nil
}

// openPersist builds the BackendFile storage stack for one tree: the
// mmap'd flat tree file at Dir/<name>.tree, optionally wrapped in the
// write-ahead log at Dir/<name>.wal (replaying any crash-left prefix).
// The tree file must not exist yet: the position map, stash and counters
// are not persisted, so a reopened tree would read back as zeros — that is
// an error wrapping fs.ErrExist, never a silent reinitialisation.
func (c *Config) openPersist(numBuckets uint64, stride int) (storage.Storage, error) {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pathoram: creating Dir: %w", err)
	}
	base := filepath.Join(c.Dir, c.storeName)
	if _, err := os.Stat(base + ".tree"); err == nil {
		return nil, fmt.Errorf("pathoram: cannot reopen %s.tree, client state is not persisted: %w", base, fs.ErrExist)
	}
	var st storage.Storage
	st, err := storage.OpenFile(base+".tree", numBuckets, stride)
	if err != nil {
		return nil, err
	}
	if c.WAL {
		w, err := storage.OpenWAL(st, base+".wal", storage.WALConfig{CheckpointEvery: c.WALDepth})
		if err != nil {
			st.Close()
			return nil, err
		}
		st = w
	}
	return st, nil
}

// openStack builds the storage stack of one tree at c's geometry
// (LeafLevel, Z, BlockSize) — the one builder behind New and every
// hierarchy level. Bottom to top: the tree file (BackendFile); the plain or
// encrypting bucket store, with the authentication tree under Integrity;
// and the timed layer on c.bus (BackendDRAM; ensureBus supplies the bus if
// none was injected), which charges the tree's port through timer (nil
// charges the port directly).
func (c *Config) openStack(timer func(*membus.Port) core.PathTimer) (treeStack, error) {
	var t treeStack
	if err := c.ensureBus(); err != nil {
		return t, err
	}
	var scheme encrypt.Scheme
	buckets := treemath.New(c.LeafLevel).NumBuckets()
	if c.plain() {
		if c.Backend == BackendFile {
			p, err := c.openPersist(buckets, storage.PlainRecordBytes(c.Z, c.BlockSize))
			if err != nil {
				return t, err
			}
			ps, err := storage.NewPathStore(p, c.LeafLevel, c.Z, c.BlockSize)
			if err != nil {
				p.Close()
				return t, err
			}
			t.store, t.footprint, t.persist = ps, ps, p
		} else {
			ms, err := core.NewMemStore(c.LeafLevel, c.Z, c.BlockSize)
			if err != nil {
				return t, err
			}
			t.store = ms
		}
	} else {
		var err error
		if scheme, err = c.buildScheme(buckets); err != nil {
			return t, err
		}
		scfg := encrypt.StoreConfig{LeafLevel: c.LeafLevel, Z: c.Z, BlockBytes: c.BlockSize, Scheme: scheme}
		if c.Integrity {
			scfg.Auth = encrypt.NewAuthTree(c.LeafLevel, c.Z, c.BlockSize, scheme)
		}
		if c.Backend == BackendFile {
			if scfg.Backing, err = c.openPersist(buckets, encrypt.PaddedBucketBytes(scheme, c.Z, c.BlockSize)); err != nil {
				return t, err
			}
		}
		es, err := encrypt.NewStore(scfg)
		if err != nil {
			if scfg.Backing != nil {
				scfg.Backing.Close()
			}
			return t, err
		}
		t.store, t.footprint, t.persist = es, es, scfg.Backing
	}
	if c.Backend == BackendDRAM {
		port, err := c.bus.AttachShard(c.LeafLevel, modeledBucketBytes(scheme, c.Z, c.BlockSize))
		if err != nil {
			return t, err
		}
		var pt core.PathTimer = port
		if timer != nil {
			pt = timer(port)
		}
		if t.store, err = core.NewTimedStore(t.store, pt); err != nil {
			return t, err
		}
		t.port = port
	}
	return t, nil
}

// New builds an ORAM from the configuration.
func New(cfg Config) (*ORAM, error) {
	if cfg.BlockSize == 0 {
		cfg.Encryption = EncryptNone // metadata-only: no payloads to encrypt
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SuperBlockSize == 0 {
		cfg.SuperBlockSize = 1
	}
	if cfg.LeafLevel == 0 {
		slots := uint64(float64(cfg.Blocks) / cfg.Utilization)
		l := 0
		for uint64(cfg.Z)*(1<<uint(l+1)-1) < slots && l < treemath.MaxLeafLevel {
			l++
		}
		for uint64(cfg.Z)*(1<<uint(l+1)-1) < cfg.Blocks && l < treemath.MaxLeafLevel {
			l++
		}
		cfg.LeafLevel = l
	}
	t, err := cfg.openStack(nil)
	if err != nil {
		return nil, err
	}
	src := cfg.leafSource()
	params := core.Params{
		LeafLevel:             cfg.LeafLevel,
		Z:                     cfg.Z,
		BlockBytes:            cfg.BlockSize,
		Blocks:                cfg.Blocks,
		StashCapacity:         cfg.StashCapacity,
		SuperBlock:            cfg.SuperBlockSize,
		BackgroundEviction:    !cfg.DisableBackgroundEviction && cfg.StashCapacity > 0,
		DeferWriteBack:        cfg.AsyncEviction,
		MaxDeferredWriteBacks: cfg.MaxDeferredWriteBacks,
		ConstantTimeStash:     cfg.ConstantTimeStash,
	}
	if cfg.OnPathAccess != nil {
		hook := cfg.OnPathAccess
		params.OnPathAccess = func(leaf uint64, _ core.AccessKind) { hook(leaf) }
	}
	pos, err := core.NewOnChipPositionMap(params.Groups(), treemath.New(cfg.LeafLevel).NumLeaves(), src)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(params, t.store, pos, src)
	if err != nil {
		return nil, err
	}
	return &ORAM{cfg: cfg, inner: inner, pos: pos, footprint: t.footprint, persist: t.persist, port: t.port}, nil
}

// Read returns a copy of the block at addr (zero-filled if never written).
// One oblivious path access.
func (o *ORAM) Read(addr uint64) ([]byte, error) {
	return o.inner.Access(addr, core.OpRead, nil)
}

// ReadInto reads the block at addr into the caller-provided dst (which
// must be BlockSize bytes), avoiding the per-read result allocation of
// Read — the hot-path form for throughput-sensitive callers. found reports
// whether the block was ever written; on a miss dst is zero-filled. One
// oblivious path access.
func (o *ORAM) ReadInto(addr uint64, dst []byte) (found bool, err error) {
	return o.inner.ReadInto(addr, dst)
}

// Write replaces the block at addr. One oblivious path access.
func (o *ORAM) Write(addr uint64, data []byte) error {
	_, err := o.inner.Access(addr, core.OpWrite, data)
	return err
}

// Update applies fn to the block's content in place, in a single oblivious
// read-modify-write access.
func (o *ORAM) Update(addr uint64, fn func(data []byte)) error {
	return o.inner.Update(addr, fn)
}

// Load removes the block (and, with super blocks, its resident group
// members) from the ORAM and hands them to the caller — the exclusive-ORAM
// read of Section 3.3.1. found is false if addr was never written.
func (o *ORAM) Load(addr uint64) (data []byte, found bool, group []Block, err error) {
	data, found, slots, err := o.inner.Load(addr)
	if err != nil {
		return nil, false, nil, err
	}
	for _, s := range slots {
		group = append(group, Block{Addr: s.Addr, Data: s.Data})
	}
	return data, found, group, nil
}

// Store returns a previously loaded block. It inserts straight into the
// stash — no path access (Section 3.3.1).
func (o *ORAM) Store(addr uint64, data []byte) error {
	return o.inner.Store(addr, data)
}

// ReadBatch reads every address, back to back on the calling goroutine
// (a single tree has no intra-batch parallelism to exploit — Sharded
// does), under the shared batch contract (see serialReadBatch).
func (o *ORAM) ReadBatch(addrs []uint64) ([][]byte, error) {
	return serialReadBatch(addrs, o.cfg.Blocks, o.Read)
}

// WriteBatch writes data[i] to addrs[i] for every i, back to back on the
// calling goroutine, under the shared batch contract (see
// serialWriteBatch).
func (o *ORAM) WriteBatch(addrs []uint64, data [][]byte) error {
	return serialWriteBatch(addrs, data, o.cfg.Blocks, o.Write)
}

// PaddingAccess performs one dummy path access — a freshly drawn uniform
// path is read and written back, remapping nothing — and counts it as
// scheduler padding (Stats.PaddingAccesses). On the memory bus it is
// indistinguishable from a real access; the sharded serving layer's padded
// batch mode uses it to fill the dummy slots of a fixed-shape schedule.
func (o *ORAM) PaddingAccess() error { return o.inner.PaddingAccess() }

// BackgroundWork reports what one StepBackground call did.
type BackgroundWork = core.BackgroundWork

// Re-exported StepBackground outcomes.
const (
	BgNone      = core.BgNone
	BgWriteBack = core.BgWriteBack
	BgEviction  = core.BgEviction
)

// StepBackground performs one unit of deferred work — completing one
// pending path write-back, or (when allowEviction is set and the stash
// sits above the idle low-water mark) issuing one background-eviction
// dummy access — and reports which. Under AsyncEviction, call it whenever
// the ORAM would otherwise sit idle; BgNone means there is nothing useful
// to do right now. Inside a Sharded the shard workers call it for you.
func (o *ORAM) StepBackground(allowEviction bool) (BackgroundWork, error) {
	return o.inner.StepBackground(allowEviction)
}

// Flush completes every deferred path write-back and fully drains
// background eviction, leaving the ORAM in a state the synchronous
// protocol could have produced. Under BackendFile it is also the
// durability epoch: the tree file is msync'd (and the WAL, if enabled,
// checkpointed and truncated) before Flush returns. A no-op without
// AsyncEviction on volatile backends.
func (o *ORAM) Flush() error {
	if err := o.inner.Flush(); err != nil {
		return err
	}
	if o.persist != nil {
		return o.persist.Sync()
	}
	return nil
}

// PendingWriteBacks returns the number of deferred path write-backs not
// yet completed (always 0 without AsyncEviction).
func (o *ORAM) PendingWriteBacks() int { return o.inner.PendingWriteBacks() }

// Stats returns the protocol counters.
func (o *ORAM) Stats() Stats { return o.inner.Stats() }

// TimingStats returns the modeled memory-timing counters of this tree's
// port on the shared memory scheduler: DRAM traffic and row-hit counters,
// stage-2/stage-5 path charges, and the modeled completion frontier in
// DDR3 cycles. The bool is false under BackendMem (no model attached).
// Implements shard.TimedEngine, so pools aggregate these like protocol
// stats. Note the counters advance when I/O is *charged*: under
// AsyncEviction a write-back's cycles land when the flush schedule issues
// it, so snapshot after Flush (Sharded does this automatically) to see
// access-complete totals.
func (o *ORAM) TimingStats() (TimingStats, bool) {
	if o.port == nil {
		return TimingStats{}, false
	}
	return o.port.Stats(), true
}

// ResetStats clears the protocol counters (peak occupancy included).
// BlocksInORAM is a live occupancy gauge, not a counter, and survives the
// reset.
func (o *ORAM) ResetStats() { o.inner.ResetStats() }

// StashSize returns the current stash occupancy in blocks.
func (o *ORAM) StashSize() int { return o.inner.StashSize() }

// LeafLevel returns L; the tree has L+1 levels.
func (o *ORAM) LeafLevel() int { return o.cfg.LeafLevel }

// NumORAMs returns the number of ORAMs an access walks: 1 — a flat ORAM
// keeps its whole position map on chip. (Hierarchy returns the chain
// length H; the accessor exists on both so the serving layer can report
// the recursion depth uniformly.)
func (o *ORAM) NumORAMs() int { return 1 }

// OnChipPositionMapBytes returns the on-chip position-map footprint at
// 4 bytes per entry — for a flat ORAM, the whole map.
func (o *ORAM) OnChipPositionMapBytes() uint64 { return o.pos.SizeBits(32) / 8 }

// OnChipBytes returns the total trusted-memory provision of the
// construction: the on-chip position map plus the stash bound (C slots of
// payload and metadata — the processor reserves it whether or not the
// stash fills; see core.Params.StashBoundBytes). This is the on-chip-bytes
// objective of the paper's design space: recursion trades it against
// extra path accesses per operation.
func (o *ORAM) OnChipBytes() uint64 {
	return o.OnChipPositionMapBytes() + o.inner.Params().StashBoundBytes()
}

// Close quiesces the ORAM: every deferred write-back is completed and
// background eviction fully drained (Flush). On volatile backends it owns
// no goroutines or external handles, so unlike Sharded.Close it does not
// invalidate the receiver — it is the Client interface's quiesce point.
// Under BackendFile it additionally checkpoints and closes the tree file
// (and WAL); the ORAM then rejects further I/O, and the first backend
// error — flush, sync, or close — is the one reported.
func (o *ORAM) Close() error {
	err := o.inner.Flush()
	if o.persist != nil {
		if e := o.persist.Close(); err == nil {
			err = e
		}
	}
	return err
}

// ExternalMemoryBytes returns the external storage footprint (0 for plain
// in-memory stores).
func (o *ORAM) ExternalMemoryBytes() uint64 {
	if o.footprint == nil {
		return 0
	}
	return o.footprint.MemoryBytes()
}
