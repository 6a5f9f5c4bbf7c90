package pathoram

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// Tests named TestQueue* run in the CI `-run 'FRFCFS|Queue|Paced'` shard.

// queueDeterminismRun drives one full load against a fresh multi-shard
// timed instance and returns its closing timing snapshot. Batches span
// every shard, so the shard workers charge the shared bus concurrently —
// exactly the regime where lock-acquisition order used to leak into the
// modeled cycle totals. The config is flat and synchronous: per-shard
// request streams are then functions of the (seeded) protocol alone, and
// the event-ordered bus must make the totals a function of those streams.
func queueDeterminismRun(t *testing.T, sched MemSched, seed int64) TimingStats {
	t.Helper()
	const shards, blocks, batch, ops = 4, 256, 16, 200
	cfg := dramConfig(shards, blocks, PartitionStripe, false, seed)
	cfg.DRAMSched = sched
	s, err := openSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	buf := make([]byte, 16)
	addrs := make([]uint64, batch)
	data := make([][]byte, batch)
	for j := range data {
		data[j] = buf
	}
	for lo := uint64(0); lo < blocks; lo += batch {
		for j := range addrs {
			addrs[j] = lo + uint64(j)
		}
		if err := s.WriteBatch(addrs, data); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for op := 0; op < ops; op += batch {
		for j := range addrs {
			addrs[j] = rng.Uint64() % blocks
		}
		if rng.Intn(2) == 0 {
			if err := s.WriteBatch(addrs, data); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.ReadBatch(addrs); err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := s.TimingStats()
	if !ok {
		t.Fatal("no timing stats on the dram backend")
	}
	return ts
}

// TestQueueDeterministicAcrossGOMAXPROCS is the reproducibility
// acceptance check: repeated runs of the same seeded multi-shard load
// must produce byte-identical TimingStats — every modeled cycle total,
// latency sum and DRAM counter — whatever GOMAXPROCS the goroutine
// scheduler is given, under both scheduling policies.
func TestQueueDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sched := range []MemSched{MemSchedInOrder, MemSchedFRFCFS} {
		for _, seed := range []int64{3, 11} {
			var ref TimingStats
			have := false
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 2; rep++ {
					ts := queueDeterminismRun(t, sched, seed)
					if !have {
						ref, have = ts, true
						continue
					}
					if !reflect.DeepEqual(ts, ref) {
						t.Fatalf("sched=%v seed=%d GOMAXPROCS=%d rep=%d: timing diverged\nref %+v\ngot %+v",
							sched, seed, procs, rep, ref, ts)
					}
				}
			}
			if ref.Cycles == 0 {
				t.Fatalf("sched=%v seed=%d: modeled clock never advanced", sched, seed)
			}
		}
	}
}
