package core

import (
	"crypto/subtle"
	"encoding/binary"
)

// Constant-time stash scans (Params.ConstantTimeStash).
//
// Threat model (SECURITY.md): in the secure-processor setting the stash
// lookup runs on the critical path of every memory access, and an
// early-return scan makes the access latency a function of *where* (and
// whether) the block sits in the stash — a timing channel on secret
// addresses. The scans here execute a fixed number of slot visits per
// lookup — the window size, a public constant fixed at construction — and
// combine per-slot address-match masks with masked selects, so hit
// position and hit-vs-miss change neither the instruction count nor the
// memory-touch count. Payload scans move 64-bit words: each slot's match
// widens to a uint64 mask, reads OR-accumulate mask&word over every slot,
// and writes blend d ^= mask & (d ^ s) into every slot's payload.
//
// What stays public: the live entry count (stash occupancy drives the
// publicly observable background-eviction schedule, Section 3.1), the scan
// window, and block sizes. Branching on those is fine; branching on
// addresses, match results or payload bytes is not.
//
// The dense entries layout evolves exactly as in legacy mode, so a
// constant-time ORAM replays bit-identically to a legacy one.

// initCT switches the stash into constant-time mode with the given fixed
// scan window (capacity in slots). The backing array carries one extra
// dump slot at index window, the masked-discard target of compactCT.
func (s *stash) initCT(window int) {
	s.ct = true
	s.window = window
	s.all = make([]Slot, window+1)
	s.entries = s.all[:0:window]
	s.masks = make([]uint64, window)
	if s.blockBytes > 0 {
		s.deadScratch = make([]byte, s.blockBytes)
		// Preallocate the payload pool: one buffer per window slot, carved
		// from a single arena, so the steady state never allocates.
		arena := make([]byte, window*s.blockBytes)
		s.free = make([][]byte, 0, window)
		for i := 0; i < window; i++ {
			s.free = append(s.free, arena[i*s.blockBytes:(i+1)*s.blockBytes:(i+1)*s.blockBytes])
		}
	}
}

// growCT doubles the window when the stash overflows it (possible only
// with capacity-exceeding workloads; Validate requires a bounded stash, so
// the window normally covers the worst mid-access occupancy C + Z(L+1)).
// Growth is driven by occupancy — public — and trades the fixed window for
// correctness until the next growth.
func (s *stash) growCT() {
	n := len(s.entries)
	window := 2 * s.window
	all := make([]Slot, window+1)
	copy(all, s.all[:n])
	s.all = all
	s.window = window
	s.entries = s.all[:n:window]
	s.masks = make([]uint64, window)
}

// ctLiveMask returns 1 if i indexes a live entry (i < n), else 0. Both
// values are public; the masked form keeps the per-slot instruction
// sequence uniform.
func ctLiveMask(i, n int) int {
	return subtle.ConstantTimeLessOrEq(i+1, n)
}

// ctEq64 returns 1 if a == b, in constant time: x|-x has its top bit set
// exactly when x = a^b is nonzero.
func ctEq64(a, b uint64) int {
	x := a ^ b
	return int(((x | -x) >> 63) ^ 1)
}

// ctLess64 returns 1 if a < b (unsigned, constant time): the borrow bit of
// the subtraction a - b.
func ctLess64(a, b uint64) int {
	borrow := ((^a & b) | ((^a | b) & (a - b))) >> 63
	return int(borrow)
}

// ctSelect fills s.masks with the per-slot selection masks of addr — all
// ones for the first live slot holding it (first match wins, like the
// legacy find), zero for every other slot — and returns the found mask (all
// ones on hit, zero on miss). Every window slot is visited.
func (s *stash) ctSelect(addr uint64) uint64 {
	n := len(s.entries)
	full := s.all[:s.window]
	masks := s.masks[:len(full)]
	s.scanSlots += uint64(len(full))
	var found uint64
	for i := range full {
		eq := -uint64(ctEq64(full[i].Addr, addr) & ctLiveMask(i, n))
		masks[i] = eq &^ found
		found |= eq
	}
	return found
}

// ctFind returns the index of addr, or -1, visiting every window slot.
func (s *stash) ctFind(addr uint64) int {
	found := s.ctSelect(addr)
	var idx uint64
	for i, m := range s.masks[:s.window] {
		idx |= m & uint64(i)
	}
	return subtle.ConstantTimeSelect(int(found&1), int(idx), -1)
}

// ctPayload returns the payload a masked scan touches at window slot i:
// the entry's own for live slots, deadScratch for dead ones (n, the
// occupancy, is public), so every slot costs the same memory touches.
func (s *stash) ctPayload(i, n int) []byte {
	if i < n {
		return s.all[i].Data
	}
	return s.deadScratch
}

// ctReadInto copies the payload of addr into dst with a fixed-length
// masked scan; dst is untouched on a miss (callers prefill it with the
// fresh-fill pattern, so hit and miss leave no branch at all). Returns 1
// on hit, 0 on miss.
//
// The scan runs chunk-major: for each 32-byte chunk of dst it reads that
// chunk of every window slot, OR-accumulating mask&word into four
// registers, then blends the accumulators over dst under the found mask.
// 8-byte words and single bytes finish block sizes that are not multiples
// of 32.
func (s *stash) ctReadInto(addr uint64, dst []byte) int {
	found := s.ctSelect(addr)
	n := len(s.entries)
	masks := s.masks[:s.window]
	le := binary.LittleEndian
	off := 0
	for ; off+32 <= len(dst); off += 32 {
		var a0, a1, a2, a3 uint64
		for i, m := range masks {
			p := s.ctPayload(i, n)[off : off+32]
			a0 |= m & le.Uint64(p[0:8])
			a1 |= m & le.Uint64(p[8:16])
			a2 |= m & le.Uint64(p[16:24])
			a3 |= m & le.Uint64(p[24:32])
		}
		d := dst[off : off+32]
		ctBlendWord(found, d[0:8], a0)
		ctBlendWord(found, d[8:16], a1)
		ctBlendWord(found, d[16:24], a2)
		ctBlendWord(found, d[24:32], a3)
	}
	for ; off+8 <= len(dst); off += 8 {
		var a uint64
		for i, m := range masks {
			a |= m & le.Uint64(s.ctPayload(i, n)[off:off+8])
		}
		ctBlendWord(found, dst[off:off+8], a)
	}
	for ; off < len(dst); off++ {
		var a byte
		for i, m := range masks {
			a |= byte(m) & s.ctPayload(i, n)[off]
		}
		dst[off] ^= byte(found) & (dst[off] ^ a)
	}
	return int(found & 1)
}

// ctWriteData copies data into the payload of addr with a fixed-length
// masked scan. Returns 1 on hit, 0 on miss (the caller then appends a new
// entry; occupancy changes are public).
//
// Like ctReadInto it runs chunk-major: each 32-byte chunk of data is
// loaded once and blended into that chunk of every window slot's payload
// (deadScratch for dead slots), so every slot is read and stored back and
// changes only where its mask is set.
func (s *stash) ctWriteData(addr uint64, data []byte) int {
	found := s.ctSelect(addr)
	n := len(s.entries)
	masks := s.masks[:s.window]
	le := binary.LittleEndian
	off := 0
	for ; off+32 <= len(data); off += 32 {
		src := data[off : off+32]
		w0, w1 := le.Uint64(src[0:8]), le.Uint64(src[8:16])
		w2, w3 := le.Uint64(src[16:24]), le.Uint64(src[24:32])
		for i, m := range masks {
			p := s.ctPayload(i, n)[off : off+32]
			ctBlendWord(m, p[0:8], w0)
			ctBlendWord(m, p[8:16], w1)
			ctBlendWord(m, p[16:24], w2)
			ctBlendWord(m, p[24:32], w3)
		}
	}
	for ; off+8 <= len(data); off += 8 {
		w := le.Uint64(data[off : off+8])
		for i, m := range masks {
			ctBlendWord(m, s.ctPayload(i, n)[off:off+8], w)
		}
	}
	for ; off < len(data); off++ {
		b := data[off]
		for i, m := range masks {
			p := s.ctPayload(i, n)
			p[off] ^= byte(m) & (p[off] ^ b)
		}
	}
	return int(found & 1)
}

// ctBlendWord stores w over the 8-byte word d where m is all ones and
// stores d's own value back where m is zero.
func ctBlendWord(m uint64, d []byte, w uint64) {
	v := binary.LittleEndian.Uint64(d)
	binary.LittleEndian.PutUint64(d, v^(m&(v^w)))
}

// ctRemapRange sets the leaf of every entry with lo <= Addr < hi with a
// fixed-length masked scan (the super-block group remap of realAccess).
func (s *stash) ctRemapRange(lo, hi uint64, newLeaf uint32) {
	n := len(s.entries)
	full := s.all[:s.window]
	s.scanSlots += uint64(s.window)
	for i := range full {
		e := &full[i]
		in := (ctLess64(e.Addr, lo) ^ 1) & ctLess64(e.Addr, hi) & ctLiveMask(i, n)
		e.Leaf = uint32(subtle.ConstantTimeSelect(in, int(newLeaf), int(e.Leaf)))
	}
}

// compactCT removes all entries whose placed mask is 1, preserving stable
// order exactly like compact, with a uniform per-entry memory-touch count:
// every live entry is read once and written once — kept entries to the
// write cursor, discarded entries to the dump slot at index window,
// selected by mask. The iteration count is the (public) occupancy; which
// addresses the cursor touches varies, but not how many.
func (s *stash) compactCT(placed []int) {
	n := len(s.entries)
	s.scanSlots += uint64(n)
	k := 0
	for i := 0; i < n; i++ {
		keepMask := placed[i] ^ 1
		dst := subtle.ConstantTimeSelect(keepMask, k, s.window)
		s.all[dst] = s.all[i]
		k += keepMask
	}
	// Zero the vacated tail and the dump slot so stale entries don't pin
	// payload buffers (the placed payloads are recycled by writeBack).
	for i := k; i < n; i++ {
		s.all[i] = Slot{}
	}
	s.all[s.window] = Slot{}
	s.entries = s.all[:k:s.window]
}
