package core

import "testing"

// TestDedupSurvivesSeqWrap feeds two interleaved path copies of every
// sequence number through several full 16-bit wraps: every first copy must
// be accepted and every second copy suppressed. The pre-fix implementation
// keyed the seen-set by the raw uint16, so the first fresh packet after a
// wrap collided with its namesake from one wrap ago and was falsely flagged
// as a duplicate.
func TestDedupSurvivesSeqWrap(t *testing.T) {
	d := newMultipathDedup()
	const total = 3 * 65536 // three full wraps
	for i := 0; i < total; i++ {
		seq := uint16(i)
		if d.Duplicate(seq) {
			t.Fatalf("fresh packet %d (seq %d) flagged as duplicate", i, seq)
		}
		if !d.Duplicate(seq) {
			t.Fatalf("second path copy of packet %d (seq %d) not flagged", i, seq)
		}
	}
	if len(d.seen) > dedupHorizon+1 {
		t.Errorf("seen-set grew to %d entries, hard bound is %d", len(d.seen), dedupHorizon+1)
	}
}

// TestDedupMemoryHardBound: the eviction cursor keeps the seen-set at the
// horizon after *every* insert — the bound is a watermark-free invariant,
// not a prune threshold the map idles at.
func TestDedupMemoryHardBound(t *testing.T) {
	d := newMultipathDedup()
	for i := 0; i < 200_000; i++ {
		d.Duplicate(uint16(i))
		if len(d.seen) > dedupHorizon+1 {
			t.Fatalf("after %d inserts the seen-set holds %d entries, bound is %d",
				i+1, len(d.seen), dedupHorizon+1)
		}
	}
	if d.evict != d.highest-dedupHorizon {
		t.Errorf("eviction cursor at %d, want highest-horizon = %d", d.evict, d.highest-dedupHorizon)
	}
}

// TestDedupBelowHorizon: a copy older than the horizon reports as a
// duplicate (its slot is gone either way) and must not resurrect state.
func TestDedupBelowHorizon(t *testing.T) {
	d := newMultipathDedup()
	for i := 0; i < dedupHorizon+1000; i++ {
		d.Duplicate(uint16(i))
	}
	size := len(d.seen)
	// Sequence 100 is far below the cursor now.
	if !d.Duplicate(100) {
		t.Error("a below-horizon copy must report duplicate")
	}
	d.Mark(101)
	if len(d.seen) != size {
		t.Errorf("below-horizon traffic grew the seen-set: %d -> %d", size, len(d.seen))
	}
}

// TestDedupReorderAcrossWrap checks the extended-sequence unwrapping on the
// slower path: a copy arriving shortly *behind* the wrap boundary must still
// map to its pre-wrap key and be recognized as a duplicate, while a fresh
// sequence just after the boundary must not.
func TestDedupReorderAcrossWrap(t *testing.T) {
	d := newMultipathDedup()
	// Walk up to just before the boundary.
	for i := 65530; i < 65536; i++ {
		if d.Duplicate(uint16(i)) {
			t.Fatalf("seq %d duplicate on first sight", i)
		}
	}
	// Cross it.
	if d.Duplicate(0) || d.Duplicate(1) {
		t.Fatal("post-wrap sequences flagged as duplicates")
	}
	// The second path's copy of the post-wrap packet.
	if !d.Duplicate(0) {
		t.Fatal("second copy of post-wrap seq 0 not flagged")
	}
	if !d.Duplicate(uint16(65531)) {
		t.Fatal("late pre-wrap copy of seq 65531 not recognized as duplicate")
	}
	// Mark (the RTX path) must land in the same key space.
	d.Mark(5)
	if !d.Duplicate(5) {
		t.Fatal("sequence Marked via the repair path not recognized as duplicate")
	}
}

// bondedArrivals replays two path copies of a media stream: the second
// path trails by up to 31 packets and one packet in 16 is lost on it, with
// an RTX repair Marked in its place.
func bondedArrivals(d *multipathDedup, i int) (dups int) {
	seq := uint16(i)
	if _, dup := d.DuplicateExt(seq); dup {
		dups++
	}
	late := seq - uint16(i*7%32)
	if i%16 == 0 {
		d.Mark(late)
	} else if _, dup := d.DuplicateExt(late); dup {
		dups++
	}
	return dups
}

var dedupSink int

// BenchmarkMultipathDedup measures one packet's arrival on each of two
// bonded paths in steady state, past a 16-bit wrap.
func BenchmarkMultipathDedup(b *testing.B) {
	d := newMultipathDedup()
	for i := 0; i < 1<<17; i++ {
		bondedArrivals(d, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dedupSink += bondedArrivals(d, 1<<17+i)
	}
}

// TestDedupSteadyStateAllocs pins DuplicateExt and Mark to zero
// allocations.
func TestDedupSteadyStateAllocs(t *testing.T) {
	d := newMultipathDedup()
	i := 0
	for ; i < 1<<17; i++ {
		bondedArrivals(d, i)
	}
	if allocs := testing.AllocsPerRun(5000, func() {
		dedupSink += bondedArrivals(d, i)
		i++
	}); allocs != 0 {
		t.Errorf("dedup allocates %.2f times per packet pair, want 0", allocs)
	}
}
