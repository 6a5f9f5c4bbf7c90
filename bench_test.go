package pathoram

// One benchmark per table and figure of the paper's evaluation, plus
// primitive-operation benchmarks for the library itself. The figure
// benchmarks run the (scaled) experiment and attach its headline numbers
// as custom benchmark metrics, so `go test -bench=. -benchmem` both
// exercises the code paths and reports the reproduced quantities.
// cmd/oram-experiments prints the full paper-style tables.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/membus"
	"repro/internal/trace"

	cpusim "repro/internal/cpu"
)

// ---------- primitive benchmarks ----------

func benchORAM(b *testing.B, cfg Config) {
	b.Helper()
	cfg.Rand = rand.New(rand.NewSource(1))
	o, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := o.Close(); err != nil {
			b.Error(err)
		}
	})
	buf := make([]byte, cfg.BlockSize)
	rng := rand.New(rand.NewSource(2))
	// Pre-fill so benches measure steady state.
	for a := uint64(0); a < cfg.Blocks; a++ {
		if err := o.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	// ReadInto with a reused destination measures the serving path
	// itself: steady state must be allocation-free (the gate in
	// cmd/oram-benchjson holds these benches to an allocs/op budget).
	dst := make([]byte, cfg.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ReadInto(rng.Uint64()%cfg.Blocks, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(o.Stats().DummyAccesses)/float64(b.N), "dummies/op")
}

func BenchmarkAccessMetadataOnly(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 14, BlockSize: 0, Encryption: EncryptNone})
}

func BenchmarkAccessPlaintext(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone})
}

func BenchmarkAccessCounterEncrypted(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter})
}

func BenchmarkAccessStrawmanEncrypted(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptStrawman})
}

func BenchmarkAccessCounterWithIntegrity(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter, Integrity: true})
}

// ---------- persistent-backend benchmarks ----------
//
// Same geometry as BenchmarkAccessCounterEncrypted, so the numbers read
// as pure storage overhead: every ReadInto rewrites its path, so the
// mmap'd tree file sees Z(L+1) record writes per op and the WAL variant
// additionally appends one log frame per op. scripts/gate.sh file
// holds the overhead to relative bounds against the in-memory baseline.

func BenchmarkFileBackendAccess(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter,
		Backend: BackendFile, Dir: b.TempDir()})
}

func BenchmarkFileBackendWAL(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter,
		Backend: BackendFile, Dir: b.TempDir(), WAL: true, WALDepth: 64})
}

// BenchmarkFileBackendWALEpochFlush measures the serving path when the
// epoch barrier is paid inline: every 32 accesses, Flush checkpoints the
// WAL (log fsync, apply, msync, truncate) — the durability cadence a
// sync-minded deployment would run.
func BenchmarkFileBackendWALEpochFlush(b *testing.B) {
	cfg := Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter,
		Backend: BackendFile, Dir: b.TempDir(), WAL: true,
		Rand: rand.New(rand.NewSource(1))}
	o, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := o.Close(); err != nil {
			b.Error(err)
		}
	})
	buf := make([]byte, cfg.BlockSize)
	for a := uint64(0); a < cfg.Blocks; a++ {
		if err := o.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, cfg.BlockSize)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ReadInto(rng.Uint64()%cfg.Blocks, dst); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			if err := o.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAccessSuperBlock2(b *testing.B) {
	benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone, SuperBlockSize: 2, Z: 4})
}

// BenchmarkAccessConstantTimeStash prices the fixed-length masked stash
// scans against the default early-exit scans (BenchmarkAccessPlaintext /
// BenchmarkAccessCounterEncrypted are the baselines): every scan touches
// the full scan window regardless of where — or whether — the block sits.
func BenchmarkAccessConstantTimeStash(b *testing.B) {
	b.Run("plaintext", func(b *testing.B) {
		benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone, ConstantTimeStash: true})
	})
	b.Run("counter", func(b *testing.B) {
		benchORAM(b, Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptCounter, ConstantTimeStash: true})
	})
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(HierarchyConfig{
		Blocks: 1 << 12, BlockSize: 128, PosBlockSize: 32,
		OnChipPosMapMax: 1 << 10, Encryption: EncryptNone,
		Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := h.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(rng.Uint64() % (1 << 12)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.NumORAMs()), "orams")
}

// BenchmarkAccessRecursivePLBHit measures the PLB hit path: a hot set
// whose labels all fit in the lookaside cache, so after warmup every
// access resolves its leaf in the PLB and touches only the data ORAM.
// The hit path shares the pooled-buffer discipline of the flat hot path,
// so steady state must stay allocation-free (scripts/gate.sh alloc
// holds this bench to the same budget as the other Access benches).
func BenchmarkAccessRecursivePLBHit(b *testing.B) {
	h, err := NewHierarchy(HierarchyConfig{
		Blocks: 1 << 12, BlockSize: 128, PosBlockSize: 32,
		OnChipPosMapMax: 1 << 10, Encryption: EncryptNone,
		PLBBytes: 1 << 14,
		Rand:     rand.New(rand.NewSource(3)),
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := h.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	const hot = 64
	rng := rand.New(rand.NewSource(4))
	dst := make([]byte, 128)
	// Warm the PLB so the measured loop is all hits.
	for a := uint64(0); a < hot; a++ {
		if _, err := h.ReadInto(a, dst); err != nil {
			b.Fatal(err)
		}
	}
	h.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadInto(rng.Uint64()%hot, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := h.Stats()
	if lookups := st.PLBHits + st.PLBMisses; lookups > 0 {
		b.ReportMetric(float64(st.PLBHits)/float64(lookups), "plb-hitrate")
	}
	b.ReportMetric(st.MeanChainLength(), "chain-len")
}

func BenchmarkExclusiveLoadStore(b *testing.B) {
	o, err := New(Config{Blocks: 1 << 12, BlockSize: 128, Encryption: EncryptNone,
		Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128)
	for a := uint64(0); a < 1<<12; a++ {
		if err := o.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Uint64() % (1 << 12)
		d, _, _, err := o.Load(a)
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Store(a, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDRAMPathReadSubtreeVsNaive(b *testing.B) {
	for _, strat := range []string{"naive", "subtree"} {
		strat := strat
		b.Run(strat, func(b *testing.B) {
			var lastCycles float64
			for i := 0; i < b.N; i++ {
				res, err := exp.RunFig11(exp.Fig11Config{
					WorkingSet: 1 << 25, Channels: []int{2},
					Settings: []exp.Setting{exp.DZ3Pb32}, Accesses: 16, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				pt := res.Points[0]
				if strat == "naive" {
					lastCycles = pt.Naive
				} else {
					lastCycles = pt.Subtree
				}
			}
			b.ReportMetric(lastCycles, "DRAMcycles/access")
		})
	}
}

// ---------- sharded serving-layer benchmarks ----------

// newBenchSharded builds and pre-fills a sharded ORAM over the whole
// logical address space so the benchmarks measure steady state.
func newBenchSharded(b *testing.B, cfg Spec) *Sharded {
	b.Helper()
	s, err := openSharded(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, cfg.BlockSize)
	const chunk = 1024
	for lo := uint64(0); lo < cfg.Blocks; lo += chunk {
		hi := lo + chunk
		if hi > cfg.Blocks {
			hi = cfg.Blocks
		}
		addrs := make([]uint64, 0, chunk)
		data := make([][]byte, 0, chunk)
		for a := lo; a < hi; a++ {
			addrs = append(addrs, a)
			data = append(data, buf)
		}
		if err := s.WriteBatch(addrs, data); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkShardedThroughput measures single-op read throughput versus
// shard count under concurrent clients (GOMAXPROCS goroutines via
// RunParallel). ops/s vs shards=1 is the sharding speedup.
func BenchmarkShardedThroughput(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize, Encryption: EncryptNone,
			})
			defer s.Close()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(100 + seed.Add(1)))
				dst := make([]byte, blockSize)
				for pb.Next() {
					if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkShardedHierarchy measures the unified composition the Open
// constructor enables: sharded ORAMs whose position maps recurse
// obliviously (one Hierarchy per shard). Each op walks a whole chain, so
// absolute throughput sits well below the flat sweep — the shard scaling
// and the per-op chain cost (the H× factor of Section 2.3) are the
// numbers of interest. CI runs it once as the composition smoke test.
func BenchmarkShardedHierarchy(b *testing.B) {
	const blocks = 1 << 13
	const blockSize = 32
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := Open(Spec{
				Blocks: blocks, BlockSize: blockSize, Shards: shards,
				PosMap: PosMapRecursive, PosBlockSize: 32, OnChipPosMapMax: 4 << 10,
				Encryption: EncryptNone,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			levels := c.(*Sharded).NumORAMs()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(300 + seed.Add(1)))
				for pb.Next() {
					if _, err := c.Read(rng.Uint64() % blocks); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(levels), "levels")
		})
	}
}

// BenchmarkShardedThroughputEncrypted is the same sweep with the
// counter-based encryption on: per-shard AES work parallelizes across
// workers, so sharding gains are larger than in the plaintext sweep.
func BenchmarkShardedThroughputEncrypted(b *testing.B) {
	const blocks = 1 << 13
	const blockSize = 64
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize, Encryption: EncryptCounter,
			})
			defer s.Close()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(200 + seed.Add(1)))
				dst := make([]byte, blockSize)
				for pb.Next() {
					if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkShardedDRAM measures the timed serving layer: wall-clock
// throughput of DRAM-backed shards on the shared memory scheduler, with
// the modeled currency attached as metrics — DDR3 cycles per op, row-hit
// rate, and achieved bytes per modeled cycle, all diffed against the
// post-pre-fill snapshot so they describe the measured reads only. CI
// runs it once as the timed-backend smoke test.
func BenchmarkShardedDRAM(b *testing.B) {
	const blocks = 1 << 12
	const blockSize = 64
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize,
				Encryption:   EncryptNone,
				Backend:      BackendDRAM,
				DRAMChannels: 2,
			})
			defer s.Close()
			pre, _ := s.TimingStats()
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(300 + seed.Add(1)))
				dst := make([]byte, blockSize)
				for pb.Next() {
					if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			post, ok := s.TimingStats()
			if !ok {
				b.Fatal("no timing stats from DRAM backend")
			}
			d := post.Delta(pre)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(d.Cycles)/float64(b.N), "cycles/op")
			b.ReportMetric(d.RowHitRate(), "row-hit")
			b.ReportMetric(d.BytesPerCycle(), "B/cycle")
		})
	}
}

// benchmarkSched drives a 2-shard timed instance under concurrent
// single-op reads and reports the modeled columns the PR 9 gate compares:
// cycles/op, row-hit rate, and ops per modeled second. Both scheduling
// policies run the identical load; scripts/gate.sh sched requires the
// FR-FCFS variant to win on all three. The queued hot path is also in
// the allocation gate — the event queue's rings, skip-mask pool, and
// batch scratch must reach steady state without per-op allocation.
func benchmarkSched(b *testing.B, sched MemSched) {
	const blocks = 1 << 12
	const blockSize = 64
	s := newBenchSharded(b, Spec{
		Shards: 2,
		Blocks: blocks, BlockSize: blockSize,
		Encryption:   EncryptNone,
		Backend:      BackendDRAM,
		DRAMChannels: 2,
		DRAMSched:    sched,
	})
	defer s.Close()
	pre, _ := s.TimingStats()
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(900 + seed.Add(1)))
		dst := make([]byte, blockSize)
		for pb.Next() {
			if _, err := s.ReadInto(rng.Uint64()%blocks, dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	post, ok := s.TimingStats()
	if !ok {
		b.Fatal("no timing stats from DRAM backend")
	}
	d := post.Delta(pre)
	b.ReportMetric(float64(d.Cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(d.RowHitRate(), "row-hit")
	if d.Cycles > 0 {
		b.ReportMetric(float64(b.N)*membus.CyclesPerSecond/float64(d.Cycles), "ops/modeled-s")
	}
}

func BenchmarkSchedInorder2Shard(b *testing.B) { benchmarkSched(b, MemSchedInOrder) }

func BenchmarkSchedFRFCFS2Shard(b *testing.B) { benchmarkSched(b, MemSchedFRFCFS) }

// BenchmarkShardedBatch measures batched submission from a single client:
// even one caller gets cross-shard parallelism because the batch fans out
// to all workers.
func BenchmarkShardedBatch(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	const batch = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards: shards,
				Blocks: blocks, BlockSize: blockSize, Encryption: EncryptNone,
			})
			defer s.Close()
			rng := rand.New(rand.NewSource(300))
			addrs := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range addrs {
					addrs[j] = rng.Uint64() % blocks
				}
				if _, err := s.ReadBatch(addrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkShardedLatency measures client-visible per-op latency — the
// time from submission to response — in synchronous versus async (staged)
// mode, under open-loop arrivals: the client pauses briefly between
// requests, as real serving traffic does. The async worker answers after
// the path read and stash merge and performs the write-back
// (serialization, encryption, store write) plus background eviction
// during the inter-arrival gap, so the client waits only for the read
// half of each access; the sync worker makes the client wait for the
// whole protocol. Under zero-gap saturation the async mode degrades to
// sync throughput by design (the deferred queue drains inline), which the
// throughput benchmarks above cover. Encryption is on because write-back
// I/O is where the AES cost sits. Timed section excludes the think time.
func BenchmarkShardedLatency(b *testing.B) {
	const blocks = 1 << 13
	const blockSize = 64
	const think = 50 * time.Microsecond // inter-arrival gap (not timed)
	for _, mode := range []string{"sync", "async"} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("mode=%s/shards=%d", mode, shards), func(b *testing.B) {
				s := newBenchSharded(b, Spec{
					Shards: shards,
					Blocks: blocks, BlockSize: blockSize,
					Encryption:    EncryptCounter,
					AsyncEviction: mode == "async",
				})
				defer s.Close()
				rng := rand.New(rand.NewSource(600))
				lat := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr := rng.Uint64() % blocks
					t0 := time.Now()
					if _, err := s.Read(addr); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(t0))
					b.StopTimer()
					time.Sleep(think)
					b.StartTimer()
				}
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				pct := func(p float64) float64 {
					i := int(p * float64(len(lat)-1))
					return float64(lat[i].Nanoseconds())
				}
				b.ReportMetric(pct(0.50), "p50-ns")
				b.ReportMetric(pct(0.99), "p99-ns")
				b.ReportMetric(pct(0.95), "p95-ns")
			})
		}
	}
}

// BenchmarkShardedBatchRandom measures the oblivious routing cost alone:
// plain (unpadded) batches under PartitionRandom, where every logical
// operation becomes a fetch from the block's current shard plus a
// relocation to a fresh uniform shard. Compare against BenchmarkShardedBatch
// at the same shard count for the routing-hiding overhead.
func BenchmarkShardedBatchRandom(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	const batch = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards:     shards,
				Partition:  PartitionRandom,
				Blocks:     blocks,
				BlockSize:  blockSize,
				Encryption: EncryptNone,
			})
			defer s.Close()
			rng := rand.New(rand.NewSource(400))
			addrs := make([]uint64, batch)
			s.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range addrs {
					addrs[j] = rng.Uint64() % blocks
				}
				if _, err := s.ReadBatch(addrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(s.Stats().PaddingPerReal(), "pad/real")
		})
	}
}

// BenchmarkShardedBatchPadded measures the fully oblivious mode —
// PartitionRandom plus padded batches, where every batch touches every
// shard equally often — and attaches the padding overhead as a metric.
// ops/s here versus BenchmarkShardedBatch is the total price of an
// input-independent shard schedule.
func BenchmarkShardedBatchPadded(b *testing.B) {
	const blocks = 1 << 14
	const blockSize = 64
	const batch = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchSharded(b, Spec{
				Shards:     shards,
				Partition:  PartitionRandom,
				Padded:     true,
				Blocks:     blocks,
				BlockSize:  blockSize,
				Encryption: EncryptNone,
			})
			defer s.Close()
			rng := rand.New(rand.NewSource(500))
			addrs := make([]uint64, batch)
			s.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range addrs {
					addrs[j] = rng.Uint64() % blocks
				}
				if _, err := s.ReadBatch(addrs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(s.Stats().PaddingPerReal(), "pad/real")
		})
	}
}

// ---------- per-figure benchmarks ----------

func BenchmarkFig03StashOccupancy(b *testing.B) {
	cfg := exp.DefaultFig3()
	cfg.WorkingSetBlocks = 1 << 12
	cfg.Zs = []int{3, 4}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Histograms[3].Mean(), "Z3_mean_stash")
		b.ReportMetric(res.Histograms[3].TailProb(50), "Z3_P_ge_50")
	}
}

func BenchmarkFig04CPLAttack(b *testing.B) {
	cfg := exp.DefaultFig4()
	cfg.Experiments = 10
	cfg.Accesses = 1000
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Secure.Mean(), "secure_cpl")
		b.ReportMetric(res.InsecureCongested.Mean(), "insecure_cpl")
	}
}

func BenchmarkFig05AccessOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig5(exp.DZ3Pb32, 1<<25, 2, 16, 31)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SeqReturn, "seq_return_cycles")
		b.ReportMetric(res.PipelinedReturn, "pipe_return_cycles")
	}
}

func BenchmarkFig07DummyRatio(b *testing.B) {
	cfg := exp.DefaultFig7()
	cfg.WorkingSetBlocks = 1 << 12
	cfg.AccessesPerBlock = 6
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio[1][200], "Z1_dummy_ratio")
		b.ReportMetric(res.Ratio[3][200], "Z3_dummy_ratio")
	}
}

func BenchmarkFig08Utilization(b *testing.B) {
	cfg := exp.DefaultFig8()
	cfg.WorkingSetBlocks = 1 << 12
	cfg.AccessesPerBlock = 6
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if best := res.Best(); best != nil {
			b.ReportMetric(float64(best.Z), "best_Z")
			b.ReportMetric(best.Overhead, "best_overhead")
		}
	}
}

func BenchmarkFig09Capacity(b *testing.B) {
	cfg := exp.DefaultFig9()
	cfg.WorkingSets = []uint64{1 << 10, 1 << 13}
	cfg.AccessesPerBlock = 6
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range res.Points {
			if pt.Z == 3 && pt.WorkingSet == 1<<13 {
				b.ReportMetric(pt.Overhead, "Z3_overhead_8k")
			}
		}
	}
}

func BenchmarkFig10Hierarchy(b *testing.B) {
	cfg := exp.DefaultFig10()
	cfg.SimWorkingSet = 1 << 12
	cfg.SimAccesses = 1 << 14
	cfg.Settings = []exp.Setting{exp.DZ3Pb32, exp.BaseORAM}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		red, err := res.ReductionVsBase("DZ3Pb32")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*red, "overhead_reduction_%")
	}
}

func BenchmarkFig11Placement(b *testing.B) {
	cfg := exp.DefaultFig11()
	cfg.Settings = []exp.Setting{exp.DZ3Pb32}
	cfg.Channels = []int{2}
	cfg.Accesses = 24
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pt := res.Points[0]
		b.ReportMetric(pt.Naive/pt.Theoretical, "naive_vs_theory")
		b.ReportMetric(pt.Subtree/pt.Theoretical, "subtree_vs_theory")
	}
}

func BenchmarkTable2Latency(b *testing.B) {
	cfg := exp.DefaultTable2()
	cfg.Accesses = 24
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if row := res.Find("DZ3Pb32"); row != nil {
			b.ReportMetric(float64(row.ReturnCycles), "DZ3Pb32_return_cyc")
			b.ReportMetric(float64(row.FinishCycles), "DZ3Pb32_finish_cyc")
		}
	}
}

func BenchmarkFig12SPEC(b *testing.B) {
	cfg := exp.DefaultFig12()
	cfg.Instructions = 50_000
	cfg.Warmup = 50_000
	cfg.SimWorkingSet = 1 << 12
	cfg.SimAccesses = 1 << 14
	cfg.Benchmarks = []string{"mcf", "libquantum", "hmmer"}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		imp, err := res.ImprovementVsBase("DZ4Pb32+SB")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*imp, "improvement_%")
	}
}

func BenchmarkIntegrityOverhead(b *testing.B) {
	cfg := exp.DefaultIntegrity()
	cfg.Accesses = 500
	for i := 0; i < b.N; i++ {
		res, err := exp.RunIntegrity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HashReadsPerAccess, "hash_reads/access")
	}
}

// BenchmarkCPUSimulator measures the timing-model throughput itself.
func BenchmarkCPUSimulator(b *testing.B) {
	p := trace.ProfileByName("mcf")
	gen := p.Generator(1)
	mem := &cpusim.ORAMMemory{ReturnLat: 1848, FinishLat: 3440}
	cfg := cpusim.Default()
	b.ResetTimer()
	if _, err := cpusim.Run(cfg, gen, mem, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N), "instructions")
}

// BenchmarkEvictionPath isolates the greedy eviction + path write cost.
func BenchmarkEvictionPath(b *testing.B) {
	p := core.Params{LeafLevel: 20, Z: 4, Blocks: 1 << 20, StashCapacity: 200, BackgroundEviction: true}
	store, err := core.NewMemStore(p.LeafLevel, p.Z, 0)
	if err != nil {
		b.Fatal(err)
	}
	src := core.NewMathLeafSource(rand.New(rand.NewSource(7)))
	pos, err := core.NewOnChipPositionMap(p.Groups(), 1<<20, src)
	if err != nil {
		b.Fatal(err)
	}
	o, err := core.New(p, store, pos, src)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Access(rng.Uint64()%(1<<20), core.OpWrite, nil); err != nil {
			b.Fatal(err)
		}
	}
}
