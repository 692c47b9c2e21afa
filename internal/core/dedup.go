package core

// multipathDedup suppresses the second copy of each packet on a bonded
// run. RTP sequence numbers are 16-bit and a six-minute flight at campaign
// bitrates wraps them many times, so deduplication is keyed by the
// *extended* (unwrapped, 64-bit) sequence: after a wrap, a fresh packet
// whose 16-bit sequence collides with one from exactly one wrap ago is a
// new key, not a false duplicate.
//
// Memory is bounded eagerly: an eviction cursor trails the highest
// extended sequence by dedupHorizon, and every note advances it. The
// seen-set is a bitset ring of dedupRing bits indexed by extended sequence
// modulo the ring; the live window [evict, highest] spans dedupHorizon+1
// sequences, fewer than the ring holds, so no two live sequences share a
// bit. Advancing the cursor clears the bits it passes, so a bit is set
// only for a sequence inside the window, and a set bit needs no tag. A
// copy arriving from *below* the cursor is beyond any plausible reorder
// window and reports as a duplicate: the player would discard it anyway,
// and answering fresh would double-count its slot.
type multipathDedup struct {
	started bool
	highest int64    // extended sequence of the newest packet seen
	evict   int64    // every key < evict has been evicted
	seen    []uint64 // dedupRing bits; bit ext&dedupMask marks ext seen
}

// dedupHorizon is the reorder window, in sequences, that deduplication
// remembers below the highest sequence seen. At campaign packet rates
// (~2-3k pkt/s) 1<<13 sequences is several seconds — far beyond any path
// skew the bonded chains can produce.
const dedupHorizon = 1 << 13

// dedupRing is the seen-set's size in bits, a power of two above the
// dedupHorizon+1 sequences of the live window.
const (
	dedupRing = 2 * dedupHorizon
	dedupMask = dedupRing - 1
)

func newMultipathDedup() *multipathDedup {
	return &multipathDedup{seen: make([]uint64, dedupRing/64)}
}

// extend unwraps a 16-bit sequence to the extended sequence nearest the
// highest one seen (RFC 1982 serial-number arithmetic, like RTP's extended
// highest sequence number but without the jump limit).
func (d *multipathDedup) extend(seq uint16) int64 {
	if !d.started {
		return int64(seq)
	}
	return d.highest + int64(int16(seq-uint16(d.highest)))
}

// note records ext as seen and advances the eviction cursor to the horizon.
// The passed bits are cleared before ext's is set: a jump past the whole
// ring would otherwise clear the bit it just set. At most dedupRing bits
// are cleared, however far the cursor moves.
func (d *multipathDedup) note(ext int64) {
	if !d.started {
		d.started = true
		d.highest = ext
		d.evict = ext - dedupHorizon
	} else if ext > d.highest {
		d.highest = ext
	}
	if lo := d.highest - dedupHorizon; d.evict < lo {
		from := d.evict
		if lo-from > dedupRing {
			from = lo - dedupRing
		}
		for e := from; e < lo; e++ {
			w, m := seenBit(e)
			d.seen[w] &^= m
		}
		d.evict = lo
	}
	w, m := seenBit(ext)
	d.seen[w] |= m
}

// seenBit locates ext's bit in the seen-set: a word index and a mask.
func seenBit(ext int64) (int, uint64) {
	return int(uint64(ext) & dedupMask / 64), 1 << (uint64(ext) % 64)
}

// has reports whether ext, at or above the eviction cursor, was seen. No
// sequence above the highest has been noted, so those skip the ring.
func (d *multipathDedup) has(ext int64) bool {
	if ext > d.highest {
		return false
	}
	w, m := seenBit(ext)
	return d.seen[w]&m != 0
}

// DuplicateExt records seq, reporting its extended sequence and whether a
// copy was already delivered (or its slot already aged past the horizon).
func (d *multipathDedup) DuplicateExt(seq uint16) (ext int64, dup bool) {
	ext = d.extend(seq)
	if d.started && ext < d.evict || d.has(ext) {
		return ext, true
	}
	d.note(ext)
	return ext, false
}

// Duplicate records seq and reports whether a copy was already delivered.
func (d *multipathDedup) Duplicate(seq uint16) bool {
	_, dup := d.DuplicateExt(seq)
	return dup
}

// Mark records a sequence delivered through another channel (an RTX repair)
// so a late path copy is still recognized as a duplicate.
func (d *multipathDedup) Mark(seq uint16) {
	ext := d.extend(seq)
	if d.started && ext < d.evict {
		return
	}
	d.note(ext)
}
