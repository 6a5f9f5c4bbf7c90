package pathoram

import (
	"fmt"
	"math/rand"
)

// Client is the unified interface every top-level construction satisfies:
// the flat ORAM, the hierarchical Hierarchy (recursive position map,
// Section 2.3) and the sharded serving layer Sharded — and therefore every
// point of the paper's design space reachable through Open. Code written
// against Client composes the axes freely: the same workload runs against
// a flat tree, a recursive chain, or a sharded fleet of either, timed or
// untimed, by changing only the Spec that built the client.
//
// Concurrency: a Client built by Open is always safe for concurrent use
// (Open returns the serving layer). The bare constructors New and
// NewHierarchy return single-threaded Clients — one goroutine must own
// them, which is exactly the ownership the serving layer enforces when it
// uses them as shard engines.
type Client interface {
	// Read returns a copy of the block at addr (zero-filled if never
	// written). One oblivious access — one path per ORAM the construction
	// walks.
	Read(addr uint64) ([]byte, error)
	// ReadInto reads the block at addr into the caller-provided dst
	// (BlockBytes long), avoiding Read's per-call result allocation —
	// this is the allocation-free hot-path read. found reports whether
	// the block was ever written (always true under PartitionRandom,
	// whose relocation leg materializes every block it touches).
	ReadInto(addr uint64, dst []byte) (found bool, err error)
	// Write replaces the block at addr. One oblivious access.
	Write(addr uint64, data []byte) error
	// Update applies fn to the block's content in place in one oblivious
	// read-modify-write access.
	Update(addr uint64, fn func(data []byte)) error
	// Load is the exclusive read of Section 3.3.1: the block (and its
	// resident super-block group) is removed and handed to the caller.
	Load(addr uint64) (data []byte, found bool, group []Block, err error)
	// Store returns a checked-out block — straight into a stash, no path
	// access.
	Store(addr uint64, data []byte) error
	// ReadBatch reads every address in one submission; results stay in
	// input order. Sharded clients fan batches out across shards.
	ReadBatch(addrs []uint64) ([][]byte, error)
	// WriteBatch writes data[i] to addrs[i] in one submission.
	WriteBatch(addrs []uint64, data [][]byte) error
	// PaddingAccess performs one scheduler-padding dummy access,
	// indistinguishable on the memory bus from a real single operation.
	PaddingAccess() error
	// StepBackground performs one unit of deferred work (write-back
	// completion, or background eviction when allowed) and reports which.
	StepBackground(allowEviction bool) (BackgroundWork, error)
	// Flush completes all deferred work, leaving a state the synchronous
	// protocol could have produced.
	Flush() error
	// PendingWriteBacks counts deferred path write-backs not yet
	// completed.
	PendingWriteBacks() int
	// Stats returns the aggregate protocol counters (merged across
	// shards and hierarchy levels).
	Stats() Stats
	// ResetStats clears the protocol counters (occupancy gauges survive).
	ResetStats()
	// TimingStats returns the modeled memory-timing counters; the bool is
	// false when the construction runs untimed (BackendMem).
	TimingStats() (TimingStats, bool)
	// StashSize returns the current stash occupancy in blocks, summed
	// over every stash the construction owns.
	StashSize() int
	// OnChipBytes returns the construction's total trusted-memory
	// provision: on-chip position maps plus the static stash bounds of
	// every tree. One of the paper's design-space objectives — fixed at
	// construction, so it never serializes against traffic.
	OnChipBytes() uint64
	// ExternalMemoryBytes returns the external storage footprint.
	ExternalMemoryBytes() uint64
	// Close quiesces the client. Sharded clients drain in-flight work and
	// stop their workers (further operations fail with ErrClosed);
	// single-threaded clients flush and remain usable.
	Close() error
}

// Every top-level construction satisfies Client.
var (
	_ Client = (*ORAM)(nil)
	_ Client = (*Hierarchy)(nil)
	_ Client = (*Sharded)(nil)
)

// checkAddr rejects an address outside the logical space [0, blocks).
func checkAddr(addr, blocks uint64) error {
	if addr >= blocks {
		return fmt.Errorf("pathoram: address %d out of range [0,%d)", addr, blocks)
	}
	return nil
}

// validateAddrs is the shared up-front batch validation: an out-of-range
// address fails the whole batch before any path is touched.
func validateAddrs(addrs []uint64, blocks uint64) error {
	for _, a := range addrs {
		if err := checkAddr(a, blocks); err != nil {
			return err
		}
	}
	return nil
}

// serialReadBatch implements the single-threaded half of the shared batch
// contract (ORAM and Hierarchy run requests back to back on the calling
// goroutine; Sharded fans out instead): validate up front, then execute
// every request, returning the first per-request failure with nil at
// failed slots.
func serialReadBatch(addrs []uint64, blocks uint64, read func(uint64) ([]byte, error)) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	if err := validateAddrs(addrs, blocks); err != nil {
		return nil, err
	}
	results := make([][]byte, len(addrs))
	var first error
	for i, a := range addrs {
		out, err := read(a)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		results[i] = out
	}
	return results, first
}

// serialWriteBatch is serialReadBatch's write half: same validation and
// error contract; later writes to a duplicated address win, matching
// slice order.
func serialWriteBatch(addrs []uint64, data [][]byte, blocks uint64, write func(uint64, []byte) error) error {
	if len(addrs) != len(data) {
		return fmt.Errorf("pathoram: %d addresses for %d payloads", len(addrs), len(data))
	}
	if err := validateAddrs(addrs, blocks); err != nil {
		return err
	}
	var first error
	for i, a := range addrs {
		if err := write(a, data[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PosMapPolicy selects where a Spec's position map lives — the recursion
// axis of the design space (Section 2.3).
type PosMapPolicy int

const (
	// PosMapOnChip keeps each shard's whole position map in trusted
	// memory: one flat Path ORAM per shard, 4 bytes of on-chip state per
	// block. The default.
	PosMapOnChip PosMapPolicy = iota
	// PosMapRecursive stores each shard's position map in a second,
	// smaller ORAM, recursively, until the final map fits in
	// OnChipPosMapMax bytes: one Hierarchy per shard. Every access then
	// walks the whole chain, smallest ORAM first — on-chip state shrinks
	// from O(N) to the fixed cap at the price of H path accesses per
	// operation.
	PosMapRecursive
)

// Spec is the declarative construction specification consumed by Open:
// one literal that composes the paper's design-space axes instead of
// three incompatible constructors. The three composition axes are
//
//	Shards:  how many independent trees serve the address space (the
//	         concurrency axis; 0/1 = a single tree behind the scheduler),
//	PosMap:  where the position map lives (the recursion axis —
//	         PosMapOnChip for flat trees, PosMapRecursive for a
//	         hierarchy per shard),
//	Backend: what the buckets cost (the timing axis — BackendMem for
//	         untimed functional serving, BackendDRAM to charge every
//	         bucket of every tree to one shared cycle-accurate DDR3
//	         model).
//
// Everything else parameterizes the trees themselves (sizes, encryption,
// integrity, the staged access path) or the scheduler (partition, queue
// depth, padded batches). A sharded recursive spec builds one Hierarchy
// per shard: per-shard keys derive from Key via the shard domain and
// per-level keys from those via the hierarchy domain, so no two trees
// anywhere share one-time pads; under BackendDRAM every level of every
// shard attaches its own port (disjoint physical region) to one shared
// memory bus.
type Spec struct {
	// Blocks is the total logical address space (required).
	Blocks uint64
	// BlockSize is the block payload in bytes (0 = metadata-only
	// simulation mode).
	BlockSize int

	// Shards is the number of independent per-shard engines behind the
	// request scheduler (default 1; must not exceed Blocks).
	Shards int
	// Partition selects the address split across shards (default
	// PartitionStripe; PartitionRandom hides request routing).
	Partition Partition
	// Padded switches ReadBatch/WriteBatch to the padded batch mode:
	// every batch touches every shard an equal number of times — the
	// larger of ceil(batchSize/Shards) and the busiest shard's real
	// demand — with scheduler-issued dummy accesses (real random-path
	// accesses) filling the empty slots, so an observer of the shard
	// schedule cannot tell which slots carried real requests. Under
	// PartitionRandom the whole shape is additionally independent of the
	// requested addresses; under the fixed partitions its height still
	// tracks the busiest shard (see DESIGN.md's decision table). Padding
	// overhead is counted in Stats.PaddingAccesses. Single operations are
	// never padded.
	Padded bool
	// QueueDepth is the per-shard request queue length (default 128).
	QueueDepth int
	// EvictionsPerIdle caps how many background-eviction dummy accesses a
	// shard worker issues per idle gap under AsyncEviction (default 4;
	// negative disables idle eviction, leaving only write-back
	// completion).
	EvictionsPerIdle int

	// PosMap selects the position-map policy (default PosMapOnChip).
	PosMap PosMapPolicy
	// PosBlockSize is the position-map ORAM block size under
	// PosMapRecursive (default 32, the paper's practical choice).
	PosBlockSize int
	// OnChipPosMapMax bounds each shard's final on-chip map in bytes
	// under PosMapRecursive (default 200 KB, Section 4.1.5; the bound is
	// per shard).
	OnChipPosMapMax uint64
	// PosZ is the position-map ORAM bucket capacity under PosMapRecursive
	// (default 3).
	PosZ int
	// PLBBytes provisions a position-map lookaside cache per shard under
	// PosMapRecursive (Section 3.3.3; see HierarchyConfig.PLBBytes): hits
	// skip the elided chain levels, dirty labels write back on eviction
	// and Flush. 0 disables. The default mode leaks chain length per
	// access (SECURITY.md); see PLBConstantShape.
	PLBBytes uint64
	// PLBConstantShape pads every PLB hit with dummy-shaped accesses to
	// the elided levels — the oblivious endpoint of the PLB axis.
	// Requires PLBBytes > 0.
	PLBConstantShape bool
	// Overlap enables the Figure 5(b) speculative cross-request overlap of
	// the recursion chain under PosMapRecursive + BackendDRAM: up to
	// Overlap consecutive rounds pipeline across the chain's per-level
	// ports (see HierarchyConfig.Overlap). 0 keeps the serial 5(a) clock.
	Overlap int

	// Z is the (data) bucket capacity (default 3).
	Z int
	// Utilization sizes each data tree (default 0.5).
	Utilization float64
	// StashCapacity is C per ORAM in blocks (default 200).
	StashCapacity int
	// ConstantTimeStash makes every stash scan fixed-length and
	// branchless-masked on every tree in the construction, closing the
	// stash timing side channel (see Config.ConstantTimeStash). Results
	// are bit-identical to the default mode.
	ConstantTimeStash bool
	// SuperBlockSize statically merges adjacent blocks (Section 3.2).
	// Note super blocks group shard-local adjacency: combine with
	// PartitionRange when they should capture program locality.
	SuperBlockSize int
	// Encryption selects the bucket encryption (default counter-based).
	Encryption Encryption
	// Integrity enables the Section 5 authentication tree per tree.
	Integrity bool
	// Key is the 16-byte master secret; every shard (and every hierarchy
	// level within a shard) encrypts under an independently derived
	// subkey. Random if nil.
	Key []byte

	// AsyncEviction enables the staged access path on every engine:
	// respond after path read and merge, defer write-back I/O to idle
	// time (see Config.AsyncEviction).
	AsyncEviction bool
	// MaxDeferredWriteBacks caps each tree's deferred write-back queue —
	// under BackendDRAM, the modeled write-buffer depth.
	MaxDeferredWriteBacks int

	// Backend selects the storage cost model (default BackendMem;
	// BackendFile persists every tree under Dir).
	Backend Backend
	// Dir is the directory holding the tree (and WAL) files under
	// BackendFile: one file per tree, named per shard and per hierarchy
	// level. Required there, rejected elsewhere. The tree files must not
	// exist yet: client state (position map, stash, counters) is not
	// persisted, so Open on a Dir that already holds them fails with an
	// error wrapping fs.ErrExist.
	Dir string
	// WAL wraps every tree file in a write-ahead log under BackendFile,
	// making the deferred write-back pipeline crash-consistent at the
	// bucket level: logged before acknowledged, checkpointed on Flush.
	// The storage layer replays a crash-left log (storage.OpenWAL), but
	// Open does not reopen a tree (see Dir).
	WAL bool
	// WALDepth self-checkpoints each tree's log after that many path
	// frames (0 = only on Flush/Close). Requires WAL.
	WALDepth int
	// DRAMChannels, DRAMLayout, DRAMSerialize parameterize the shared
	// DDR3 model under BackendDRAM (see Config).
	DRAMChannels  int
	DRAMLayout    DRAMLayout
	DRAMSerialize bool
	// DRAMSched selects the controller's command scheduling under
	// BackendDRAM: MemSchedInOrder (default) or MemSchedFRFCFS, whose
	// open per-channel queue DRAMQueueDepth and DRAMStarveCap
	// parameterize (see Config).
	DRAMSched      MemSched
	DRAMQueueDepth int
	DRAMStarveCap  int

	// Rand makes the whole construction deterministic (simulation only):
	// independent per-shard generators are seeded from it in shard order,
	// then the router's and the padding drawer's, so no generator is ever
	// shared between worker goroutines.
	Rand *rand.Rand
	// OnPathAccess, when set, observes every path every tree touches —
	// the adversary's full view: shard is the serving shard, level the
	// ORAM within its chain (0 = data ORAM; always 0 for PosMapOnChip).
	// Called from the shard worker goroutines, so distinct shards invoke
	// it concurrently; per-shard accumulators indexed by shard need no
	// locking.
	OnPathAccess func(shard, level int, leaf uint64)
}

// LeakageClass tags what a composition leaks beyond the Path ORAM
// guarantee, factored along the two independent channels SECURITY.md's
// matrices analyze: what the request routing reveals to an adversary
// watching the shard schedule (A2), and what the stash scan's timing
// reveals to a co-resident adversary timing the controller (A1t). The
// design-space explorer reports it per config point so frontier tables
// compare like with like — a point is only better if it wins an objective
// without giving up a leakage class.
type LeakageClass struct {
	// Routing is what the request→shard schedule reveals, per the
	// SECURITY.md partition×mode table: "none" (single tree, or
	// random+padded — the schedule is a function of secret coins),
	// "reaccess-corr" (random, plain: only the same-block re-access
	// correlation), "demand-shape" (fixed partition, padded batches: the
	// schedule height tracks the busiest shard), "addr-bits" (stripe,
	// plain: log2 N address bits per request) or "addr-range" (range,
	// plain: coarse address bits per request).
	Routing string
	// Stash is what the stash scan's timing reveals: "scan-timing"
	// (default early-exit scans leak hit index and hit-vs-miss to A1t) or
	// "constant-time" (fixed-window masked scans close the channel).
	Stash string
}

// String renders the class in the compact "routing=…,stash=…" form the
// explorer's tables and BENCH_*.json use.
func (l LeakageClass) String() string {
	return "routing=" + l.Routing + ",stash=" + l.Stash
}

// LeakageClass classifies what the construction this Spec describes leaks,
// per SECURITY.md's matrices. It is a pure function of the composition
// axes (Partition, Padded, Shards, ConstantTimeStash) — no construction
// required — so sweeps can tag every grid point up front.
func (s Spec) LeakageClass() LeakageClass {
	l := LeakageClass{Routing: "none", Stash: "scan-timing"}
	if s.ConstantTimeStash {
		l.Stash = "constant-time"
	}
	if s.Shards > 1 {
		switch s.Partition {
		case PartitionRandom:
			if s.Padded {
				l.Routing = "none"
			} else {
				l.Routing = "reaccess-corr"
			}
		case PartitionRange:
			if s.Padded {
				l.Routing = "demand-shape"
			} else {
				l.Routing = "addr-range"
			}
		default: // PartitionStripe
			if s.Padded {
				l.Routing = "demand-shape"
			} else {
				l.Routing = "addr-bits"
			}
		}
	}
	return l
}

// Open builds the serving layer described by spec and returns it as a
// Client: N shards (flat trees or recursive hierarchies per PosMap)
// behind the batched request scheduler, on an untimed, shared-timed or
// persistent storage backend. Open is the one constructor of the serving
// layer; the bare constructors New and NewHierarchy remain supported for
// direct, single-threaded use of one tree or one chain.
func Open(spec Spec) (Client, error) {
	s, err := openSharded(spec)
	if err != nil {
		return nil, err
	}
	return s, nil
}
