// Sharded serving: partition the address space over independent Path ORAM
// shards, each owned by a worker goroutine, and serve concurrent traffic
// through the batched request scheduler.
//
// Run with: go run ./examples/sharded
package main

import (
	"bytes"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	pathoram "repro"
)

func main() {
	// 16384 blocks of 64 bytes striped over 4 shards. Each shard is a
	// full Path ORAM (counter-encrypted here) with its own derived key,
	// its own tree and stash, and its own worker goroutine; the scheduler
	// in front makes the whole thing safe for any number of callers.
	c, err := pathoram.Open(pathoram.Spec{
		Shards:    4,
		Blocks:    16384,
		BlockSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Open always returns the sharded serving layer; the concrete type
	// adds the shard-level views (NumShards, SchedulerStats, ShardStats).
	store := c.(*pathoram.Sharded)
	fmt.Printf("sharded ORAM: %d shards over %d blocks, %.1f MB external memory\n",
		store.NumShards(), store.Blocks(),
		float64(store.ExternalMemoryBytes())/(1<<20))

	// Single operations work exactly like on a plain ORAM.
	secret := bytes.Repeat([]byte{0xAA}, 64)
	if err := store.Write(12345, secret); err != nil {
		log.Fatal(err)
	}
	got, err := store.Read(12345)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single op: read back match=%v\n", bytes.Equal(got, secret))

	// Batched submission fans out across the shards and joins, returning
	// results in input order — one caller still gets 4-way parallelism.
	addrs := make([]uint64, 256)
	data := make([][]byte, 256)
	for i := range addrs {
		addrs[i] = uint64(i * 57)
		data[i] = bytes.Repeat([]byte{byte(i)}, 64)
	}
	if err := store.WriteBatch(addrs, data); err != nil {
		log.Fatal(err)
	}
	back, err := store.ReadBatch(addrs)
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for i := range back {
		ok = ok && bytes.Equal(back[i], data[i])
	}
	fmt.Printf("batch of %d: results in order, match=%v\n", len(addrs), ok)

	// Concurrent clients: every method is goroutine-safe; requests queue
	// per shard and execute serially inside each shard, in parallel
	// across shards.
	const clients = 8
	const opsPerClient = 2000
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				addr := uint64((c*opsPerClient + i) % 16384)
				if _, err := store.Read(addr); err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	fmt.Printf("%d clients x %d reads on GOMAXPROCS=%d: %.0f ops/s\n",
		clients, opsPerClient, runtime.GOMAXPROCS(0),
		float64(clients*opsPerClient)/wall.Seconds())

	// Stats aggregate across shards (Merge semantics); the scheduler
	// keeps its own counters, including per-shard load.
	st := store.Stats()
	sched := store.SchedulerStats()
	fmt.Printf("aggregate: %d real accesses, %.3f dummy/real, stash peak %d\n",
		st.RealAccesses, st.DummyPerReal(), st.StashPeak)
	fmt.Printf("scheduler: %d single ops, %d batches, per-shard load %v\n",
		sched.SingleOps, sched.Batches, sched.ExecutedPerShard)

	// Close drains in-flight requests before stopping the workers.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("closed cleanly")

	// Oblivious routing: with the fixed partitions above, WHICH shard
	// serves a request is a public function of the address. When the
	// routing itself must be hidden, PartitionRandom remaps every block
	// to a fresh uniform shard on each access, and Padded makes every
	// batch touch every shard equally often (dummy-filled). SECURITY.md
	// has the full argument; the cost shows up as pad/real overhead and
	// a two-leg (fetch + relocate) access path.
	hc, err := pathoram.Open(pathoram.Spec{
		Shards:    4,
		Partition: pathoram.PartitionRandom,
		Padded:    true,
		Blocks:    4096,
		BlockSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	hidden := hc.(*pathoram.Sharded)
	defer hidden.Close()
	hAddrs := make([]uint64, 64)
	hData := make([][]byte, 64)
	for i := range hAddrs {
		hAddrs[i] = uint64(i * 13 % 4096)
		hData[i] = bytes.Repeat([]byte{byte(i)}, 64)
	}
	if err := hidden.WriteBatch(hAddrs, hData); err != nil {
		log.Fatal(err)
	}
	if _, err := hidden.ReadBatch(hAddrs); err != nil {
		log.Fatal(err)
	}
	hst := hidden.Stats()
	hsched := hidden.SchedulerStats()
	// On-the-wire traffic is real requests plus scheduler padding;
	// ExecutedPerShard alone shows only the (secret-coin-routed) real legs.
	wire := make([]uint64, len(hsched.ExecutedPerShard))
	for i := range wire {
		wire[i] = hsched.ExecutedPerShard[i] + hsched.PaddingPerShard[i]
	}
	fmt.Printf("oblivious routing: per-shard wire traffic %v (flat by construction), %.2f padding/real\n",
		wire, hst.PaddingPerReal())
}
