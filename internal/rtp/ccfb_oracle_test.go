package rtp

import (
	"math/rand"
	"testing"
	"time"
)

// mapCCFBGenerator is the oracle for CCFBGenerator: the original map-backed
// generator, which trimmed the map whenever it grew past four windows.
type mapCCFBGenerator struct {
	window   int
	started  bool
	highest  uint16
	arrivals map[uint16]time.Duration
}

func (g *mapCCFBGenerator) Record(seq uint16, at time.Duration) {
	if !g.started {
		g.started = true
		g.highest = seq
	} else if seqLess(g.highest, seq) {
		g.highest = seq
	}
	if _, dup := g.arrivals[seq]; !dup {
		g.arrivals[seq] = at
	}
	if len(g.arrivals) > 4*g.window {
		floor := g.highest - uint16(2*g.window)
		for s := range g.arrivals {
			if seqLess(s, floor) {
				delete(g.arrivals, s)
			}
		}
	}
}

func (g *mapCCFBGenerator) Report(now time.Duration) CCFBReport {
	begin := g.highest - uint16(g.window-1)
	rep := CCFBReport{BeginSeq: begin}
	for i := 0; i < g.window; i++ {
		m := CCFBMetric{}
		if at, ok := g.arrivals[begin+uint16(i)]; ok {
			m.Received = true
			if off := now - at; off > 0 {
				m.ArrivalOffset = off
			}
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	return rep
}

// TestCCFBGeneratorMatchesMap drives the flat generator and the map oracle
// with the same randomized arrivals — losses, duplicates, late packets and
// queue-discard gaps, over several 16-bit wraps — and requires identical
// reports at every reporting instant.
func TestCCFBGeneratorMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := []int{8, 64, 100, 256}[seed%4]
		g := NewCCFBGenerator(1, 2, window)
		o := &mapCCFBGenerator{window: window, arrivals: map[uint16]time.Duration{}}
		next := uint16(rng.Intn(1 << 16))
		now := time.Duration(0)
		var recent []uint16
		for i := 0; i < 100000; i++ {
			now += time.Duration(rng.Intn(300)) * time.Microsecond
			var seq uint16
			switch r := rng.Intn(100); {
			case r < 5 && len(recent) > 0: // duplicate
				seq = recent[rng.Intn(len(recent))]
			case r < 10: // late: behind the highest by up to three windows
				seq = next - uint16(1+rng.Intn(3*window))
			default:
				switch l := rng.Intn(100); {
				case l < 10:
					next += uint16(1 + rng.Intn(3)) // lost
				case l < 11:
					next += uint16(rng.Intn(window)) // queue discard
				}
				seq = next
				next++
			}
			g.Record(seq, now)
			o.Record(seq, now)
			if recent = append(recent, seq); len(recent) > 32 {
				recent = recent[1:]
			}
			if rng.Intn(8) == 0 {
				got := g.Report(now).Reports[0]
				want := o.Report(now)
				if got.BeginSeq != want.BeginSeq || len(got.Metrics) != len(want.Metrics) {
					t.Fatalf("seed %d arrival %d: begin %d/%d blocks, want %d/%d", seed, i, got.BeginSeq, len(got.Metrics), want.BeginSeq, len(want.Metrics))
				}
				for k := range want.Metrics {
					if got.Metrics[k] != want.Metrics[k] {
						t.Fatalf("seed %d arrival %d: seq %d = %+v, want %+v", seed, i, want.BeginSeq+uint16(k), got.Metrics[k], want.Metrics[k])
					}
				}
			}
		}
	}
}

// TestCCFBSteadyStateAllocs pins Record, Report and Unmarshal into a reused
// packet at zero allocations per call once the buffers have grown.
func TestCCFBSteadyStateAllocs(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 256)
	var parsed CCFB
	seq, now := uint16(0), time.Duration(0)
	interval := func() {
		for i := 0; i < 10; i++ {
			now += time.Millisecond
			g.Record(seq, now)
			seq++
		}
		buf, err := g.Report(now).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := parsed.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		interval()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 10; i++ {
			now += time.Millisecond
			g.Record(seq, now)
			seq++
		}
		g.Report(now)
	}); allocs != 0 {
		t.Errorf("10×Record + Report allocates %.1f times, want 0", allocs)
	}
	buf, err := g.Report(now).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := parsed.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Unmarshal into a reused CCFB allocates %.1f times, want 0", allocs)
	}
}
