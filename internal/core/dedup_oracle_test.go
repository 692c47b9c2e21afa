package core

import (
	"math/rand"
	"testing"
)

// mapDedup is the oracle for multipathDedup: the original map-backed
// seen-set, deleting each key as the eviction cursor passes it.
type mapDedup struct {
	started bool
	highest int64
	evict   int64
	seen    map[int64]bool
}

func (d *mapDedup) extend(seq uint16) int64 {
	if !d.started {
		return int64(seq)
	}
	return d.highest + int64(int16(seq-uint16(d.highest)))
}

func (d *mapDedup) note(ext int64) {
	d.seen[ext] = true
	if !d.started {
		d.started = true
		d.highest = ext
		d.evict = ext - dedupHorizon
	} else if ext > d.highest {
		d.highest = ext
	}
	for lo := d.highest - dedupHorizon; d.evict < lo; d.evict++ {
		delete(d.seen, d.evict)
	}
}

func (d *mapDedup) DuplicateExt(seq uint16) (int64, bool) {
	ext := d.extend(seq)
	if d.started && ext < d.evict {
		return ext, true
	}
	if d.seen[ext] {
		return ext, true
	}
	d.note(ext)
	return ext, false
}

func (d *mapDedup) Mark(seq uint16) {
	ext := d.extend(seq)
	if d.started && ext < d.evict {
		return
	}
	d.note(ext)
}

// TestDedupMatchesMap drives the bitset ring and the map oracle with the
// same DuplicateExt/Mark streams and compares every answer and the
// cursor state after each step, and the whole live window now and then.
// The streams mix two path copies with reordering, RTX marks, copies from
// below the eviction cursor, forward jumps past the whole bitset ring and
// many 16-bit wraps.
func TestDedupMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := newMultipathDedup(), &mapDedup{seen: map[int64]bool{}}
		next := uint16(r.Intn(1 << 16))
		jumps := 0
		for i := 0; i < 100_000; i++ {
			var seq uint16
			switch k := r.Intn(1000); {
			case k < 550: // in order
				seq = next
				next++
			case k < 850: // the other path's copy, reordered
				seq = next - uint16(r.Intn(64))
			case k < 930: // late, possibly below the cursor
				seq = next - uint16(dedupHorizon-200+r.Intn(400))
			case k < 998: // short forward skip (a lost burst)
				next += uint16(1 + r.Intn(200))
				seq = next
			default: // a jump past the whole ring (int16 range)
				next += uint16(dedupRing + 1 + r.Intn(32767-dedupRing-1))
				seq = next
				jumps++
			}
			if r.Intn(10) == 0 {
				got.Mark(seq)
				want.Mark(seq)
			} else {
				ge, gd := got.DuplicateExt(seq)
				we, wd := want.DuplicateExt(seq)
				if ge != we || gd != wd {
					t.Fatalf("seed %d step %d: DuplicateExt(%d) = (%d, %v), oracle (%d, %v)",
						seed, i, seq, ge, gd, we, wd)
				}
			}
			if got.started != want.started || got.highest != want.highest || got.evict != want.evict {
				t.Fatalf("seed %d step %d: started/highest/evict = %v/%d/%d, oracle %v/%d/%d",
					seed, i, got.started, got.highest, got.evict, want.started, want.highest, want.evict)
			}
			if i%5000 == 0 {
				for e := want.evict; e <= want.highest+dedupRing; e++ {
					if got.has(e) != want.seen[e] {
						t.Fatalf("seed %d step %d: seen[%d] = %v, oracle %v", seed, i, e, got.has(e), want.seen[e])
					}
				}
			}
		}
		if wraps := (got.highest - int64(uint16(got.highest))) >> 16; wraps < 3 || jumps == 0 {
			t.Fatalf("seed %d: stream made %d wraps and %d ring-sized jumps", seed, wraps, jumps)
		}
	}
}
