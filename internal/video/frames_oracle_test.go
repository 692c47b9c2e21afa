package video

import (
	"math/rand"
	"testing"
)

// mapFrames is the oracle for the frame registry: the original map, which
// dropped every frame more than 1200 older than the newest once it held
// more than 1200.
type mapFrames map[uint32]frameInfo

func (m mapFrames) register(f Frame) {
	m[f.Num] = frameInfo{rate: f.Rate, complexity: f.Complexity}
	if len(m) > 1200 {
		cut := f.Num - 1200
		for n := range m {
			if n < cut {
				delete(m, n)
			}
		}
	}
}

// TestFrameRegistryMatchesMap registers consecutive frames, as the encoder
// numbers them, from two starting numbers well past the 1200-frame window
// and the 2048-slot ring, and after each one compares FrameEncoding with
// the map oracle on every frame from just outside the window's old edge to
// just past the newest, plus a random older frame.
func TestFrameRegistryMatchesMap(t *testing.T) {
	for _, first := range []uint32{0, 70_000} {
		r := rand.New(rand.NewSource(int64(first) + 1))
		snd, want := &Sender{}, mapFrames{}
		for num := first; num < first+5000; num++ {
			f := Frame{Num: num, Rate: r.Float64() * 1e7, Complexity: r.Float64()}
			snd.registerFrame(f)
			want.register(f)
			lo := int64(num) - frameWindow - 3
			probes := []uint32{uint32(r.Int63n(int64(num) + 1))}
			for q := lo; q <= int64(num)+2; q++ {
				if q >= 0 {
					probes = append(probes, uint32(q))
				}
			}
			for _, q := range probes {
				gr, gc, gok := snd.FrameEncoding(q)
				w, wok := want[q]
				if gok != wok || gr != w.rate || gc != w.complexity {
					t.Fatalf("after frame %d: FrameEncoding(%d) = (%v, %v, %v), oracle (%v, %v, %v)",
						num, q, gr, gc, gok, w.rate, w.complexity, wok)
				}
			}
		}
		if len(snd.frames.ring) != frameRing {
			t.Errorf("ring holds %d slots after 5000 frames, want %d", len(snd.frames.ring), frameRing)
		}
	}
}

// TestFrameRegistryGrowsLazily: a short flight's sender keeps a ring sized
// to the frames it registered, not the full window.
func TestFrameRegistryGrowsLazily(t *testing.T) {
	snd := &Sender{}
	for num := uint32(0); num < 90; num++ { // 3 s at 30 fps
		snd.registerFrame(Frame{Num: num})
	}
	if n := len(snd.frames.ring); n != 128 {
		t.Errorf("ring holds %d slots after 90 frames, want 128", n)
	}
}

// TestRegisterFrameSteadyStateAllocs pins registering a frame to zero
// allocations once the ring has reached its full size.
func TestRegisterFrameSteadyStateAllocs(t *testing.T) {
	snd := &Sender{}
	num := uint32(0)
	for ; num < 3*frameRing; num++ {
		snd.registerFrame(Frame{Num: num})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		snd.registerFrame(Frame{Num: num})
		num++
	})
	if allocs != 0 {
		t.Errorf("registerFrame allocates %.1f times per call, want 0", allocs)
	}
}
