package scream

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/cc"
)

// naiveMin is the oracle for minWindow: the original base-delay estimator,
// which kept every sample of the window and rescanned it on each push.
type naiveMin struct{ samples []owdSample }

func (w *naiveMin) pushExpireMin(s owdSample, span time.Duration) time.Duration {
	w.samples = append(w.samples, s)
	i := 0
	for i < len(w.samples) && s.at-w.samples[i].at > span {
		i++
	}
	w.samples = w.samples[i:]
	base := w.samples[0].owd
	for _, x := range w.samples[1:] {
		if x.owd < base {
			base = x.owd
		}
	}
	return base
}

// TestMinWindowMatchesRescan drives the sliding minimum and the rescan with
// the same randomized streams — bursts of equal timestamps, tied delays,
// gaps longer than the window and resets — and requires the same minimum
// after every sample. Even seeds pack hundreds of samples into the window
// with slowly rising delays, so the deque grows while it holds samples.
func TestMinWindowMatchesRescan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := time.Duration(1+rng.Intn(200)) * time.Millisecond
		maxStep, delay := int(span/10), func(int) time.Duration { return time.Duration(rng.Intn(40)) * time.Millisecond }
		if seed%2 == 0 {
			maxStep = int(span/500) + 1
			delay = func(i int) time.Duration { return time.Duration(i%700+rng.Intn(3)) * time.Microsecond }
		}
		var fast minWindow
		var slow naiveMin
		now := time.Duration(0)
		for i := 0; i < 5000; i++ {
			switch r := rng.Intn(100); {
			case r < 30: // same timestamp as the previous sample
			case r < 98:
				now += time.Duration(rng.Intn(maxStep))
			default:
				now += span + time.Duration(rng.Intn(int(span)))
			}
			if rng.Intn(1000) == 0 {
				fast.reset()
				slow.samples = slow.samples[:0]
			}
			s := owdSample{at: now, owd: delay(i)}
			want := slow.pushExpireMin(s, span)
			fast.push(s)
			fast.expire(now, span)
			if got := fast.min(); got != want {
				t.Fatalf("seed %d sample %d: min = %v, want %v", seed, i, got, want)
			}
		}
	}
}

// mapInflight is the oracle for inflightTable: the original map, with loss
// detection 2 as a range over every entry.
type mapInflight map[uint16]inflightPkt

func (m mapInflight) expireBefore(begin uint16) (n, bytes int) {
	for seq, p := range m {
		if seqLess(seq, begin) {
			delete(m, seq)
			n++
			bytes += p.size
		}
	}
	return n, bytes
}

// sameInflight fails the test unless the table holds exactly the oracle's
// entries.
func sameInflight(t *testing.T, where string, tab *inflightTable, m mapInflight) {
	t.Helper()
	if tab.n != len(m) {
		t.Fatalf("%s: table holds %d packets, map %d", where, tab.n, len(m))
	}
	pop := 0
	for _, w := range tab.have {
		pop += bits.OnesCount64(w)
	}
	if pop != tab.n {
		t.Fatalf("%s: bitset has %d bits for %d packets", where, pop, tab.n)
	}
	for seq, want := range m {
		if got, ok := tab.get(seq); !ok || got != want {
			t.Fatalf("%s: seq %d = %+v/%v, want %+v", where, seq, got, ok, want)
		}
	}
}

// TestInflightTableMatchesMap drives the table and the map with the same
// randomized send/ack/report streams and requires identical loss counts,
// lost bytes and contents throughout. The streams reorder acks, move a
// report's begin backwards, reset on watchdog recovery, wrap the 16-bit
// sequence space many times, and occasionally send out of order or jump
// far enough that the unacknowledged packets span more than half the
// sequence space.
func TestInflightTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := new(inflightTable)
		m := mapInflight{}
		window := []int{16, 64, 256}[rng.Intn(3)]
		next := uint16(rng.Intn(1 << 16))
		lastBegin := next
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(1000); {
			case r < 500: // send
				seq := next
				switch g := rng.Intn(1000); {
				case g < 10:
					seq -= uint16(1 + rng.Intn(window)) // out of order
				case g < 13:
					seq += uint16(0x7000 + rng.Intn(0x2000)) // far jump
				case g < 60:
					seq += uint16(rng.Intn(300)) // queue discard gap
				}
				if seqLess(next, seq+1) {
					next = seq + 1
				}
				p := inflightPkt{sendTime: time.Duration(op), size: 100 + rng.Intn(1100)}
				tab.put(seq, p)
				m[seq] = p
			case r < 800: // ack, in any order, near the send cursor
				seq := next - uint16(1+rng.Intn(2*window))
				_, okMap := m[seq]
				if _, ok := tab.get(seq); ok != okMap {
					t.Fatalf("seed %d op %d: get(%d) = %v, map %v", seed, op, seq, ok, okMap)
				}
				if okMap {
					tab.del(seq)
					delete(m, seq)
				}
			case r < 995: // report
				var begin uint16
				switch b := rng.Intn(100); {
				case b < 70:
					begin = next - uint16(window) + uint16(rng.Intn(window/4))
				case b < 90:
					begin = lastBegin - uint16(rng.Intn(window)) // stale report
				default:
					begin = uint16(rng.Intn(1 << 16))
				}
				lastBegin = begin
				wn, wb := m.expireBefore(begin)
				gn, gb := tab.expireBefore(begin)
				if gn != wn || gb != wb {
					t.Fatalf("seed %d op %d: expireBefore(%d) = %d pkts/%d B, map %d/%d", seed, op, begin, gn, gb, wn, wb)
				}
			default: // watchdog recovery
				tab.clear()
				clear(m)
			}
			if op%97 == 0 {
				sameInflight(t, "mid-stream", tab, m)
			}
		}
		sameInflight(t, "end", tab, m)
	}
}

// steadyFeedback drives a controller through a steady stream of about
// 1000 packets/s with a 256-packet RFC 8888 report every 10 ms, the shape
// of a campaign flight at a few Mbps. Each step sends the 10 packets of one
// reporting interval and then delivers one report. Per-packet jitter and
// losses come from a table drawn once, so the step times the controller,
// not the random number generator.
type steadyFeedback struct {
	c      *Controller
	acks   []cc.Ack
	seq    uint16
	now    time.Duration
	jitter []time.Duration
	lost   []bool
}

func newSteadyFeedback() *steadyFeedback {
	f := &steadyFeedback{c: New(Config{}), acks: make([]cc.Ack, 256)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1031; i++ {
		f.jitter = append(f.jitter, time.Duration(rng.Intn(20))*time.Millisecond)
		f.lost = append(f.lost, rng.Intn(50) == 0)
	}
	return f
}

func (f *steadyFeedback) step() {
	for i := 0; i < 10; i++ {
		f.c.OnPacketSent(cc.SentPacket{Seq: f.seq, Size: 1000, SendTime: f.now + time.Duration(i)*time.Millisecond})
		f.seq++
	}
	f.now += 10 * time.Millisecond
	begin := f.seq - uint16(len(f.acks))
	for i := range f.acks {
		seq := begin + uint16(i)
		// Sent one millisecond apart, received after 30-50 ms; the
		// newest few are still in flight and one in 50 is lost.
		sent := f.now - time.Duration(len(f.acks)-i)*time.Millisecond
		arrival := sent + 30*time.Millisecond + f.jitter[int(seq)%len(f.jitter)]
		f.acks[i] = cc.Ack{Seq: seq, Received: arrival <= f.now && !f.lost[int(seq)%len(f.lost)], ArrivalTime: arrival}
	}
	f.c.OnFeedback(f.now, f.acks)
}

// warm runs the stream past the 10 s base-delay window, so the window is
// full and evicting.
func (f *steadyFeedback) warm() {
	for f.now < 12*time.Second {
		f.step()
	}
}

// TestOnFeedbackSteadyStateAllocs pins the steady-state feedback path at
// zero allocations per report.
func TestOnFeedbackSteadyStateAllocs(t *testing.T) {
	f := newSteadyFeedback()
	f.warm()
	if allocs := testing.AllocsPerRun(200, f.step); allocs != 0 {
		t.Errorf("OnPacketSent×10 + OnFeedback allocates %.1f times per report, want 0", allocs)
	}
}

// BenchmarkScreamOnFeedback times one reporting interval of the steady
// stream: ten OnPacketSent calls and one 256-ack OnFeedback with a full
// 10 s base-delay window.
func BenchmarkScreamOnFeedback(b *testing.B) {
	f := newSteadyFeedback()
	f.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.step()
	}
}
