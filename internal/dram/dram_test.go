package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newSys(t *testing.T, channels int) *System {
	t.Helper()
	s, err := New(MicronGeometry(channels), DDR3Micron())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Channels: 0, Banks: 8, RowBytes: 8192, AccessBytes: 64},
		{Channels: 1, Banks: 0, RowBytes: 8192, AccessBytes: 64},
		{Channels: 1, Banks: 8, RowBytes: 8192, AccessBytes: 0},
		{Channels: 1, Banks: 8, RowBytes: 100, AccessBytes: 64},
	}
	for i, g := range bad {
		if _, err := New(g, DDR3Micron()); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
}

func TestAddressMappingOrder(t *testing.T) {
	// Paper Section 3.3.4: adjacent addresses differ first in channels,
	// then columns, then banks, then rows.
	s := newSys(t, 2)
	g := s.Geometry()
	a := s.Map(0)
	b := s.Map(uint64(g.AccessBytes)) // next 64B unit -> next channel
	if b.Channel != (a.Channel+1)%2 || b.Col != a.Col || b.Bank != a.Bank || b.Row != a.Row {
		t.Errorf("adjacent unit should switch channels: %+v -> %+v", a, b)
	}
	colsSpan := uint64(g.AccessBytes * g.Channels)
	c := s.Map(colsSpan) // past channels -> next column
	if c.Col != a.Col+1 || c.Channel != a.Channel || c.Bank != a.Bank {
		t.Errorf("expected next column: %+v", c)
	}
	bankSpan := colsSpan * uint64(g.RowBytes/g.AccessBytes)
	d := s.Map(bankSpan)
	if d.Bank != a.Bank+1 || d.Row != a.Row {
		t.Errorf("expected next bank: %+v", d)
	}
	rowSpan := bankSpan * uint64(g.Banks)
	e := s.Map(rowSpan)
	if e.Row != a.Row+1 || e.Bank != a.Bank {
		t.Errorf("expected next row: %+v", e)
	}
}

func TestMappingBijective(t *testing.T) {
	s := newSys(t, 4)
	seen := map[Location]uint64{}
	f := func(raw uint32) bool {
		addr := uint64(raw) / 64 * 64 // align to access units
		loc := s.Map(addr)
		if prev, ok := seen[loc]; ok {
			return prev == addr
		}
		seen[loc] = addr
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	s := newSys(t, 1)
	first := s.Access(0, 0, false) // opens the row
	st := s.stats
	if st.RowMisses != 1 {
		t.Fatalf("first access should miss, stats=%+v", st)
	}
	second := s.Access(first, 64, false) // same row, next column
	if s.stats.RowHits != 1 {
		t.Fatalf("second access should hit, stats=%+v", s.stats)
	}
	hitLat := second - first
	// A row conflict in the same bank: different row, same bank.
	g := s.Geometry()
	conflictAddr := uint64(g.RowBytes) * uint64(g.Channels) * uint64(g.Banks) // row+1, bank 0
	third := s.Access(second, conflictAddr, false)
	missLat := third - second
	if hitLat >= missLat {
		t.Errorf("row hit latency %d should beat conflict latency %d", hitLat, missLat)
	}
}

func TestStreamingIsBusLimited(t *testing.T) {
	// Sequential streaming within open rows must approach one burst per
	// TBURST cycles.
	s := newSys(t, 1)
	const n = 2048
	var done uint64
	for i := 0; i < n; i++ {
		done = s.Access(0, uint64(i*64), false)
	}
	perAccess := float64(done) / n
	if perAccess > 1.5*float64(s.Timing().TBURST) {
		t.Errorf("streaming cost %.2f cycles/access, want close to TBURST=%d",
			perAccess, s.Timing().TBURST)
	}
	if s.RowHitRate() < 0.95 {
		t.Errorf("streaming row hit rate %.2f, want ~1", s.RowHitRate())
	}
}

func TestChannelsParallelize(t *testing.T) {
	// The same request stream spread over 4 channels should finish much
	// faster than on 1 channel.
	run := func(channels int) uint64 {
		s := newSys(t, channels)
		reqs := make([]Request, 1024)
		for i := range reqs {
			reqs[i] = Request{Addr: uint64(i * 64)}
		}
		return s.AccessAll(0, reqs)
	}
	t1, t4 := run(1), run(4)
	if float64(t4) > 0.5*float64(t1) {
		t.Errorf("4-channel run (%d cycles) not meaningfully faster than 1-channel (%d)", t4, t1)
	}
}

func TestRandomAccessesSlowerThanStreaming(t *testing.T) {
	stream := newSys(t, 1)
	var sdone uint64
	for i := 0; i < 1024; i++ {
		sdone = stream.Access(0, uint64(i*64), false)
	}
	randSys := newSys(t, 1)
	rng := rand.New(rand.NewSource(1))
	var rdone uint64
	for i := 0; i < 1024; i++ {
		addr := uint64(rng.Intn(1<<30)) / 64 * 64
		rdone = randSys.Access(0, addr, false)
	}
	if rdone <= sdone {
		t.Errorf("random pattern (%d cycles) should be slower than streaming (%d)", rdone, sdone)
	}
	if randSys.RowHitRate() > 0.2 {
		t.Errorf("random row hit rate %.2f suspiciously high", randSys.RowHitRate())
	}
}

// TestDRAMAccessAllQueues pins the per-channel queuing semantics of
// AccessAll: same-channel requests chain — request k+1 arrives at request
// k's completion — while distinct channels drain independently from the
// batch arrival cycle. The batch must behave exactly like hand-chained
// Access calls, and a same-channel different-bank pair must NOT overlap
// their activations the way simultaneous issue would.
func TestDRAMAccessAllQueues(t *testing.T) {
	g := MicronGeometry(2)
	// Two requests per channel, to different banks (row misses both), plus
	// a row-hit follow-up. Bank stride for this geometry:
	bankSpan := uint64(g.AccessBytes*g.Channels) * uint64(g.RowBytes/g.AccessBytes)
	reqs := []Request{
		{Addr: 0},                // ch 0, bank 0
		{Addr: 64},               // ch 1, bank 0
		{Addr: bankSpan},         // ch 0, bank 1
		{Addr: bankSpan + 64},    // ch 1, bank 1
		{Addr: 128, Write: true}, // ch 0, bank 0 again (turnaround + hit)
	}
	batch, err := New(g, DDR3Micron())
	if err != nil {
		t.Fatal(err)
	}
	got := batch.AccessAll(7, reqs)

	// Reference: hand-chain the same requests per channel on a twin system.
	ref, err := New(g, DDR3Micron())
	if err != nil {
		t.Fatal(err)
	}
	heads := []uint64{7, 7}
	var want uint64
	for _, r := range reqs {
		ch := ref.Map(r.Addr).Channel
		heads[ch] = ref.Access(heads[ch], r.Addr, r.Write)
		if heads[ch] > want {
			want = heads[ch]
		}
	}
	if got != want {
		t.Errorf("AccessAll completed at %d, hand-chained per-channel queue at %d", got, want)
	}
	if batch.Stats() != ref.Stats() {
		t.Errorf("stats diverged: batch=%+v ref=%+v", batch.Stats(), ref.Stats())
	}

	// The queue must actually serialize same-channel requests: the second
	// bank-0-channel-0 miss cannot activate until the first request's data
	// completed, so the batch finishes strictly later than unbounded-
	// lookahead simultaneous issue (the old behavior).
	sim, err := New(g, DDR3Micron())
	if err != nil {
		t.Fatal(err)
	}
	var simDone uint64
	for _, r := range reqs {
		if d := sim.Access(7, r.Addr, r.Write); d > simDone {
			simDone = d
		}
	}
	if got <= simDone {
		t.Errorf("queued batch completed at %d, not later than simultaneous issue (%d)", got, simDone)
	}
}

// TestDRAMStatsMerge covers the per-shard aggregation path: counters sum,
// the completion high-water mark takes the max, and merging with the zero
// value is the identity.
func TestDRAMStatsMerge(t *testing.T) {
	a := Stats{Reads: 3, Writes: 1, RowHits: 2, RowMisses: 2, Refreshes: 1,
		DataBusBusyCycles: 16, LastCompletionCycle: 90}
	b := Stats{Reads: 5, Writes: 4, RowHits: 6, RowMisses: 3, Refreshes: 0,
		DataBusBusyCycles: 36, LastCompletionCycle: 40}
	got := a.Merge(b)
	want := Stats{Reads: 8, Writes: 5, RowHits: 8, RowMisses: 5, Refreshes: 1,
		DataBusBusyCycles: 52, LastCompletionCycle: 90}
	if got != want {
		t.Errorf("Merge = %+v, want %+v", got, want)
	}
	if got := b.Merge(a); got != want {
		t.Errorf("Merge not symmetric: %+v vs %+v", got, want)
	}
	if got := a.Merge(Stats{}); got != a {
		t.Errorf("Merge with zero changed stats: %+v vs %+v", got, a)
	}
	if hr := want.RowHitRate(); hr != 8.0/13.0 {
		t.Errorf("merged RowHitRate = %v, want %v", hr, 8.0/13.0)
	}
	if (Stats{}).RowHitRate() != 0 {
		t.Error("zero-stats RowHitRate should be 0")
	}
}

// TestDRAMStatsResetAfterMergeSource re-pins Reset in the aggregation
// context: a system whose counters were merged out continues from a clean
// slate, and its fresh stats still merge correctly.
func TestDRAMStatsResetAfterMergeSource(t *testing.T) {
	s := newSys(t, 1)
	s.Access(0, 0, false)
	first := s.Stats()
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Fatalf("Reset left stats: %+v", s.Stats())
	}
	s.Access(0, 0, false)
	again := s.Stats()
	if first != again {
		t.Errorf("post-Reset cold access stats %+v differ from first run %+v", again, first)
	}
	merged := first.Merge(again)
	if merged.Reads != 2 || merged.RowMisses != 2 {
		t.Errorf("merged reset-separated stats wrong: %+v", merged)
	}
}

func TestWritesAndTurnaround(t *testing.T) {
	s := newSys(t, 1)
	end1 := s.Access(0, 0, false)
	end2 := s.Access(end1, 64, true) // read->write turnaround
	end3 := s.Access(end2, 128, false)
	if end2 <= end1 || end3 <= end2 {
		t.Error("time must advance across mixed accesses")
	}
	st := s.Stats()
	if st.Reads != 2 || st.Writes != 1 {
		t.Errorf("stats=%+v want 2 reads / 1 write", st)
	}
}

func TestRefreshOccursAndStalls(t *testing.T) {
	s := newSys(t, 1)
	tm := s.Timing()
	// Access right before the refresh deadline, then right at it.
	s.Access(uint64(tm.TREFI)-10, 0, false)
	if s.Stats().Refreshes != 0 {
		t.Fatal("refresh fired early")
	}
	done := s.Access(uint64(tm.TREFI), 64, false)
	if s.Stats().Refreshes == 0 {
		t.Fatal("refresh did not fire")
	}
	if done < uint64(tm.TREFI)+uint64(tm.TRFC) {
		t.Errorf("access completed at %d, before refresh window closed", done)
	}
}

func TestRefreshDisabled(t *testing.T) {
	tm := DDR3Micron()
	tm.TREFI = 0
	s, err := New(MicronGeometry(1), tm)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(1_000_000, 0, false)
	if s.Stats().Refreshes != 0 {
		t.Error("refresh fired while disabled")
	}
}

func TestResetClearsState(t *testing.T) {
	s := newSys(t, 2)
	s.Access(0, 0, false)
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Error("Reset left stats")
	}
	// After reset, the same access must behave like a cold start.
	d1 := s.Access(0, 0, false)
	s.Reset()
	d2 := s.Access(0, 0, false)
	if d1 != d2 {
		t.Errorf("cold-start latency changed after reset: %d vs %d", d1, d2)
	}
}

func TestPeakBandwidth(t *testing.T) {
	s := newSys(t, 4)
	want := 4.0 * 64 / float64(s.Timing().TBURST)
	if got := s.PeakBytesPerCycle(); got != want {
		t.Errorf("PeakBytesPerCycle=%v want %v", got, want)
	}
}

type subInner struct {
	Hits, Frontier uint64
}

type subOuter struct {
	In    subInner
	Count uint64
	Bytes int
}

func TestSubCountersDiffsNestedCounters(t *testing.T) {
	cur := subOuter{In: subInner{Hits: 10, Frontier: 900}, Count: 7, Bytes: 64}
	prev := subOuter{In: subInner{Hits: 4, Frontier: 300}, Count: 2, Bytes: 64}
	got := subCounters(cur, prev)
	want := subOuter{In: subInner{Hits: 6, Frontier: 600}, Count: 5, Bytes: 64}
	if got != want {
		t.Errorf("subCounters = %+v, want %+v", got, want)
	}
	// Inputs are passed by value: cur must be untouched.
	if cur.Count != 7 || cur.In.Hits != 10 {
		t.Errorf("subCounters mutated its input: %+v", cur)
	}
}

func TestSubCountersSelfIsZeroExceptConfig(t *testing.T) {
	s := subOuter{In: subInner{Hits: 3, Frontier: 5}, Count: 9, Bytes: 32}
	got := subCounters(s, s)
	if got.In.Hits != 0 || got.In.Frontier != 0 || got.Count != 0 {
		t.Errorf("self-diff left nonzero counters: %+v", got)
	}
	if got.Bytes != 32 {
		t.Errorf("self-diff dropped the config constant: %+v", got)
	}
}

func TestSubCountersRejectsUnknownKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("subCounters accepted a float field without deciding its semantics")
		}
	}()
	type bad struct{ Rate float64 }
	subCounters(bad{Rate: 1}, bad{Rate: 2})
}
