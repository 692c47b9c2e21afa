package scream

import (
	"math/bits"
	"time"
)

// owdSample supports the windowed base-delay minimum.
type owdSample struct {
	at  time.Duration
	owd time.Duration
}

// minWindow is a sliding minimum over one-way-delay samples pushed with
// non-decreasing times. It is a monotonic deque: each push first drops the
// samples at the back whose delay is not below the new one (they can never
// be the minimum again), so delays increase from front to back and the
// front is the minimum of every sample still inside the window. Push and
// expire are amortized O(1); the ring only grows, so the steady state does
// not allocate.
type minWindow struct {
	ring []owdSample // power-of-two length
	head int
	n    int
}

// push appends a sample.
func (w *minWindow) push(s owdSample) {
	for w.n > 0 && w.ring[(w.head+w.n-1)&(len(w.ring)-1)].owd >= s.owd {
		w.n--
	}
	if w.n == len(w.ring) {
		w.grow()
	}
	w.ring[(w.head+w.n)&(len(w.ring)-1)] = s
	w.n++
}

func (w *minWindow) grow() {
	ring := make([]owdSample, max(16, 2*len(w.ring)))
	for i := 0; i < w.n; i++ {
		ring[i] = w.ring[(w.head+i)&(len(w.ring)-1)]
	}
	w.ring, w.head = ring, 0
}

// expire drops the samples taken more than span before now.
func (w *minWindow) expire(now, span time.Duration) {
	for w.n > 0 && now-w.ring[w.head].at > span {
		w.head = (w.head + 1) & (len(w.ring) - 1)
		w.n--
	}
}

// min returns the smallest delay in the window; the window must be
// non-empty.
func (w *minWindow) min() time.Duration { return w.ring[w.head].owd }

// reset empties the window, keeping its storage.
func (w *minWindow) reset() { w.head, w.n = 0, 0 }

// inflightPkt is the sender-side record of an unacknowledged packet.
type inflightPkt struct {
	sendTime time.Duration
	size     int
}

// halfSpace is half the 16-bit sequence space: a sequence number precedes
// another when it is less than halfSpace behind it (seqLess).
const halfSpace = 1 << 15

// inflightTable holds the unacknowledged packets keyed by RTP sequence
// number: a direct-mapped table over the 16-bit space with an occupancy
// bitset, so a lookup or delete is an index and a bit test, never a hash.
//
// lo and hi bound the occupied sequence numbers: each lies in the serial
// range [lo, hi), which spans at most halfSpace. The bound is what lets
// expireBefore walk up from the oldest unacknowledged packet instead of
// visiting every entry. Packets are sent in sequence order, so the range
// only extends forward; should the occupied numbers ever spread over more
// than halfSpace, wide is set and expiry walks the half space behind the
// report instead, which is exact for any occupancy.
type inflightTable struct {
	pkts   [1 << 16]inflightPkt
	have   [1 << 16 / 64]uint64
	n      int
	lo, hi uint16
	wide   bool
}

func (t *inflightTable) get(seq uint16) (inflightPkt, bool) {
	if t.have[seq/64]&(1<<(seq%64)) == 0 {
		return inflightPkt{}, false
	}
	return t.pkts[seq], true
}

// put records seq, replacing any record already held for it.
func (t *inflightTable) put(seq uint16, p inflightPkt) {
	t.pkts[seq] = p
	w, b := seq/64, uint64(1)<<(seq%64)
	if t.have[w]&b != 0 {
		return
	}
	t.have[w] |= b
	t.n++
	off, span := int(seq-t.lo), int(t.hi-t.lo)
	switch {
	case t.n == 1:
		t.lo, t.hi, t.wide = seq, seq+1, false
	case t.wide, off < span:
		// Already inside the bound.
	case off < halfSpace:
		t.hi = seq + 1 // ahead: the usual case
	case span+(1<<16-off) <= halfSpace:
		t.lo = seq // a little behind lo
	default:
		t.wide = true
	}
}

// del drops seq, which must be held. The bounds stay valid, if looser.
func (t *inflightTable) del(seq uint16) {
	t.have[seq/64] &^= 1 << (seq % 64)
	t.n--
}

// clear drops every record.
func (t *inflightTable) clear() {
	t.have = [len(t.have)]uint64{}
	t.n = 0
}

// expireBefore drops every packet that precedes begin in serial-number
// order (seqLess(seq, begin)) and returns how many it dropped and their
// total size.
func (t *inflightTable) expireBefore(begin uint16) (n, bytes int) {
	if t.n == 0 {
		return 0, 0
	}
	if t.wide {
		n, bytes = t.walk(begin-(halfSpace-1), halfSpace-1)
		// The survivors lie in [begin, begin+halfSpace].
		if t.have[(begin+halfSpace)/64]&(1<<((begin+halfSpace)%64)) == 0 {
			t.lo, t.hi, t.wide = begin, begin+halfSpace, false
		}
		return n, bytes
	}
	span, ahead := int(t.hi-t.lo), int(begin-t.lo)
	switch {
	case ahead == 0:
	case ahead < halfSpace:
		// begin is ahead of lo: everything in [lo, begin) precedes it.
		n, bytes = t.walk(t.lo, min(ahead, span))
		if ahead < span {
			t.lo = begin
		}
	case ahead-(halfSpace-1) < span:
		// begin is behind lo (a stale report): only the far end of
		// [lo, hi), at least halfSpace+1 ahead of begin, precedes it.
		from := t.lo + uint16(ahead-(halfSpace-1))
		n, bytes = t.walk(from, int(t.hi-from))
		t.hi = from
	}
	return n, bytes
}

// walk drops the held packets among the count sequence numbers starting at
// from, skipping empty bitset words whole.
func (t *inflightTable) walk(from uint16, count int) (n, bytes int) {
	for count > 0 {
		w, off := from/64, from%64
		k := min(64-int(off), count)
		mask := (uint64(1)<<k - 1) << off
		if m := t.have[w] & mask; m != 0 {
			t.have[w] &^= m
			for ; m != 0; m &= m - 1 {
				bytes += t.pkts[int(w)*64+bits.TrailingZeros64(m)].size
				n++
			}
		}
		from += uint16(k)
		count -= k
	}
	t.n -= n
	return n, bytes
}
