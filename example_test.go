package pathoram_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	pathoram "repro"
)

// A minimal oblivious block store: every Read/Write is one random-looking
// path access.
func ExampleNew() {
	oram, err := pathoram.New(pathoram.Config{
		Blocks:    1024,
		BlockSize: 64,
		Rand:      rand.New(rand.NewSource(1)), // deterministic for the example only
	})
	if err != nil {
		log.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x42}, 64)
	if err := oram.Write(17, data); err != nil {
		log.Fatal(err)
	}
	got, err := oram.Read(17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bytes.Equal(got, data))
	// Output: true
}

// The exclusive interface of Section 3.3.1: Load removes a block from the
// ORAM (plus its super-block siblings); Store returns it for free.
func ExampleORAM_Load() {
	oram, err := pathoram.New(pathoram.Config{
		Blocks:         256,
		BlockSize:      16,
		SuperBlockSize: 2,
		Encryption:     pathoram.EncryptNone, // simulation mode
		Rand:           rand.New(rand.NewSource(2)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := oram.Write(8, bytes.Repeat([]byte{1}, 16)); err != nil {
		log.Fatal(err)
	}
	if err := oram.Write(9, bytes.Repeat([]byte{2}, 16)); err != nil {
		log.Fatal(err)
	}
	data, found, group, err := oram.Load(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(found, data[0], len(group), group[0].Addr)
	// Returning the lines costs no path access.
	if err := oram.Store(8, data); err != nil {
		log.Fatal(err)
	}
	if err := oram.Store(9, group[0].Data); err != nil {
		log.Fatal(err)
	}
	// Output: true 1 1 9
}

// A sharded ORAM partitions the address space over independent Path ORAM
// shards, each behind its own worker goroutine — all methods are safe for
// concurrent use, and batches fan out across shards in parallel.
func ExampleSharded() {
	c, err := pathoram.Open(pathoram.Spec{
		Shards:    4,
		Blocks:    4096,
		BlockSize: 64,
		Rand:      rand.New(rand.NewSource(4)), // deterministic for the example only
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	store := c.(*pathoram.Sharded) // Open always returns the serving layer

	// Distinct residues mod 4, so the batch lands one write on each shard.
	addrs := []uint64{3, 1000, 2049, 4094}
	data := make([][]byte, len(addrs))
	for i, a := range addrs {
		data[i] = bytes.Repeat([]byte{byte(a)}, 64)
	}
	// One batched submission: the four writes run on four shards in parallel.
	if err := store.WriteBatch(addrs, data); err != nil {
		log.Fatal(err)
	}
	got, err := store.ReadBatch(addrs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range addrs {
		if !bytes.Equal(got[i], data[i]) {
			log.Fatalf("mismatch at %d", addrs[i])
		}
	}
	fmt.Println(store.NumShards(), store.Stats().RealAccesses)
	// Output: 4 8
}

// Open composes the design space from one declarative Spec: the same
// client code runs flat, sharded, recursive or timed constructions by
// changing config fields. Here four shards each keep their position map
// in a recursive ORAM chain instead of on-chip memory.
func ExampleOpen() {
	store, err := pathoram.Open(pathoram.Spec{
		Blocks:          1 << 12,
		BlockSize:       32,
		Shards:          4,                        // concurrency axis
		PosMap:          pathoram.PosMapRecursive, // recursion axis
		Backend:         pathoram.BackendMem,      // timing axis (BackendDRAM = modeled cycles)
		PosBlockSize:    16,
		OnChipPosMapMax: 256, // per shard — forces a real chain at this size
		Encryption:      pathoram.EncryptNone,
		Rand:            rand.New(rand.NewSource(5)), // deterministic for the example only
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	if err := store.Write(1234, bytes.Repeat([]byte{9}, 32)); err != nil {
		log.Fatal(err)
	}
	got, err := store.Read(1234)
	if err != nil {
		log.Fatal(err)
	}
	sharded := store.(*pathoram.Sharded)
	fmt.Println(got[0], sharded.NumShards(), sharded.NumORAMs() > 1)
	// Output: 9 4 true
}

// A hierarchical ORAM keeps the position map oblivious too: H ORAMs are
// accessed per request, smallest first (Section 2.3).
func ExampleNewHierarchy() {
	mem, err := pathoram.NewHierarchy(pathoram.HierarchyConfig{
		Blocks:          1 << 12,
		BlockSize:       32,
		PosBlockSize:    16,
		OnChipPosMapMax: 512,
		Rand:            rand.New(rand.NewSource(3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := mem.Update(100, func(d []byte) { d[0] = 7 }); err != nil {
		log.Fatal(err)
	}
	got, err := mem.Read(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mem.NumORAMs() > 1, got[0])
	// Output: true 7
}
