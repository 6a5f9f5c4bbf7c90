package pathoram

import (
	"bytes"
	"fmt"
	"testing"
)

// TestPooledCTEquivalenceReplay replays one seeded workload through two
// identically-seeded serving layers — default mode and ConstantTimeStash —
// across partitions and eviction modes, and requires every read to return
// identical bytes. Together with the core-level tree comparison
// (TestCTEquivalenceBitIdentical) this proves the pooled, constant-time
// hot path is a pure execution-strategy change: same protocol, same
// randomness consumption, same state. Run under -race this also exercises
// the pooled request state (reqPool) and per-shard arenas concurrently.
func TestPooledCTEquivalenceReplay(t *testing.T) {
	const blocks = 512
	const blockSize = 32
	parts := map[string]Partition{"stripe": PartitionStripe, "random": PartitionRandom}
	for partName, part := range parts {
		for _, async := range []bool{false, true} {
			mode := "sync"
			if async {
				mode = "async"
			}
			name := fmt.Sprintf("%s/%s", partName, mode)
			t.Run(name, func(t *testing.T) {
				build := func(ct bool) *Sharded {
					s, err := openSharded(Spec{
						Shards: 4, Partition: part,
						Blocks: blocks, BlockSize: blockSize,
						Encryption:        EncryptCounter,
						ConstantTimeStash: ct,
						AsyncEviction:     async,
						Rand:              testRand(91),
					})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				legacy, ct := build(false), build(true)
				defer legacy.Close()
				defer ct.Close()
				rng := testRand(92)
				dstA := make([]byte, blockSize)
				dstB := make([]byte, blockSize)
				for i := 0; i < 800; i++ {
					addr := rng.Uint64() % blocks
					switch rng.Intn(3) {
					case 0:
						data := bytes.Repeat([]byte{byte(i)}, blockSize)
						if err := legacy.Write(addr, data); err != nil {
							t.Fatal(err)
						}
						if err := ct.Write(addr, data); err != nil {
							t.Fatal(err)
						}
					case 1:
						a, err := legacy.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						b, err := ct.Read(addr)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(a, b) {
							t.Fatalf("op %d: Read(%d) diverged: % x vs % x", i, addr, a, b)
						}
					case 2:
						fa, err := legacy.ReadInto(addr, dstA)
						if err != nil {
							t.Fatal(err)
						}
						fb, err := ct.ReadInto(addr, dstB)
						if err != nil {
							t.Fatal(err)
						}
						if fa != fb || !bytes.Equal(dstA, dstB) {
							t.Fatalf("op %d: ReadInto(%d) diverged: found %v/%v, % x vs % x",
								i, addr, fa, fb, dstA, dstB)
						}
					}
					if async && i%16 == 0 {
						if _, err := legacy.StepBackground(true); err != nil {
							t.Fatal(err)
						}
						if _, err := ct.StepBackground(true); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := legacy.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := ct.Flush(); err != nil {
					t.Fatal(err)
				}
				// Final sweep: every address reads back identically.
				for a := uint64(0); a < blocks; a++ {
					x, err := legacy.Read(a)
					if err != nil {
						t.Fatal(err)
					}
					y, err := ct.Read(a)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(x, y) {
						t.Fatalf("final sweep: Read(%d) diverged: % x vs % x", a, x, y)
					}
				}
			})
		}
	}
}

// TestLoadMultiMemberSuperBlockGroup pins the Load group-extraction fix:
// with a 4-block super block fully resident, Load must hand back every
// sibling. The old swap-delete scan could skip a member when the
// extraction itself reordered the stash mid-sweep (the swapped-in tail
// entry was never revisited); extractRange sweeps stably, so membership
// no longer depends on stash order.
func TestLoadMultiMemberSuperBlockGroup(t *testing.T) {
	o, err := New(Config{
		Blocks: 256, BlockSize: 8, SuperBlockSize: 4, Z: 4, Rand: testRand(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group of addresses 40..43. Write all four, then Load one member:
	// the path read pulls the co-located group into the stash, and the
	// extraction must return the other three regardless of where the
	// sweep finds them.
	payload := func(a uint64) []byte { return bytes.Repeat([]byte{byte(a)}, 8) }
	for a := uint64(40); a < 44; a++ {
		if err := o.Write(a, payload(a)); err != nil {
			t.Fatal(err)
		}
	}
	data, found, group, err := o.Load(41)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !bytes.Equal(data, payload(41)) {
		t.Fatalf("Load(41): found=%v data=%x", found, data)
	}
	got := map[uint64][]byte{}
	for _, m := range group {
		got[m.Addr] = m.Data
	}
	for _, want := range []uint64{40, 42, 43} {
		d, ok := got[want]
		if !ok {
			t.Fatalf("group member %d missing (group: %d members %v)", want, len(group), addrsOf(group))
		}
		if !bytes.Equal(d, payload(want)) {
			t.Errorf("group member %d data = %x, want %x", want, d, payload(want))
		}
	}
	if len(group) != 3 {
		t.Errorf("group has %d members, want 3 (%v)", len(group), addrsOf(group))
	}
	// Return everything; the round trip must preserve all four payloads.
	if err := o.Store(41, data); err != nil {
		t.Fatal(err)
	}
	for _, m := range group {
		if err := o.Store(m.Addr, m.Data); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(40); a < 44; a++ {
		d, err := o.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d, payload(a)) {
			t.Errorf("after round trip, Read(%d) = %x, want %x", a, d, payload(a))
		}
	}
}

func addrsOf(group []Block) []uint64 {
	out := make([]uint64, len(group))
	for i, b := range group {
		out[i] = b.Addr
	}
	return out
}
