package main

import (
	"encoding/binary"
	"math/rand"
)

// blockSize is the reference geometry's payload size; every workload uses
// it with refBlocks blocks.
const (
	blockSize = 64
	refBlocks = 65536
	// conns is the closed loop's connection count: one per CPU of the
	// reference host, each owning a disjoint half of the address space.
	conns = 2
)

// op is one generated operation on a connection's own address slice.
type op struct {
	write bool
	idx   uint64 // index into the connection's slice; addr() maps it
}

// connGen generates one connection's operations and holds its shadow
// copy. Connection c owns the addresses whose bit 1 equals c, so both
// connections spread evenly over a two-way stripe partition while their
// address sets stay disjoint, which makes the shadow exact.
type connGen struct {
	conn     int
	n        uint64 // addresses owned
	rng      *rand.Rand
	zipf     *rand.Zipf
	readFrac float64
	ver      []uint32 // shadow: current version of every owned address
}

func newConnGen(conn int, seed int64, blocks uint64, w *workload) *connGen {
	n := blocks / conns
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	g := &connGen{conn: conn, n: n, rng: rng, readFrac: w.readFrac, ver: make([]uint32, n)}
	if w.zipf > 0 {
		g.zipf = rand.NewZipf(rng, w.zipf, 1, n-1)
	}
	return g
}

// addr maps an owned index to its global address.
func (g *connGen) addr(i uint64) uint64 {
	return (i>>1)<<2 | uint64(g.conn)<<1 | i&1
}

func (g *connGen) next() op {
	var i uint64
	if g.zipf != nil {
		i = g.zipf.Uint64()
	} else {
		i = uint64(g.rng.Int63n(int64(g.n)))
	}
	return op{write: g.rng.Float64() >= g.readFrac, idx: i}
}

// payload returns the block content of version ver of addr. The first
// word never reads as zero, so a zero-filled (never written) block can
// not pass as any version.
func payload(addr uint64, ver uint32, dst []byte) []byte {
	dst = dst[:blockSize]
	binary.LittleEndian.PutUint64(dst[0:], addr^0xa5a5_5a5a_0f0f_f0f0)
	binary.LittleEndian.PutUint64(dst[8:], uint64(ver))
	x := addr<<32 | uint64(ver)
	for off := 16; off < blockSize; off += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[off:], z^z>>31)
	}
	return dst
}

// plan turns generated ops into requests: a write takes the next
// version of its address, a read expects the version the shadow holds
// after every earlier op of the stream. The shadow advances when the op
// is planned; a failed write leaves it ahead of the server, so later
// reads of that address fail too, which is what err_ratio should show.
type planned struct {
	op
	ver uint32
}

func (g *connGen) plan(o op) planned {
	if o.write {
		g.ver[o.idx]++
	}
	return planned{op: o, ver: g.ver[o.idx]}
}
