package repair

import (
	"time"

	"rpivideo/internal/rtp"
)

// cacheEntry is one ring slot. A slot stops being live when eviction drops
// it or when its sequence number is stored again; a dead slot still inside
// the ring is a husk that eviction skips.
type cacheEntry struct {
	pkt      *rtp.Packet
	storedAt time.Duration
	size     int
	resends  int
	seq      uint16
	live     bool
}

// Cache is the sender-side retransmission store, bounded by total bytes
// and by entry age.
//
// Entries sit in a power-of-two ring in store order, so the oldest entry
// is always at the head and eviction pops from there. A direct-mapped
// index gives each 16-bit sequence number the ring slot of its newest
// store; a lookup is valid only if that slot is live and still carries the
// sequence, so the index is never cleared and needs no hashing. Sequence
// numbers wrap every 65536 packets; storing a number again kills the old
// slot (counted as an eviction), so a reused number can never evict its
// successor. Store allocates only when the ring grows.
type Cache struct {
	cfg   Config
	ring  []cacheEntry
	head  int // absolute position of the oldest slot
	tail  int // absolute position of the next store
	index [1 << 16]uint32
	live  int
	bytes int

	// Stored and Evicted count packets in and out; Misses counts lookups
	// that found nothing fresh enough to resend.
	Stored  int
	Evicted int
	Misses  int
}

// minCacheRing is the ring's first capacity; it doubles when full.
const minCacheRing = 64

// NewCache returns an empty cache; cfg should have passed WithDefaults.
func NewCache(cfg Config) *Cache {
	return &Cache{cfg: cfg, ring: make([]cacheEntry, minCacheRing)}
}

// Bytes returns the bytes currently held.
func (c *Cache) Bytes() int { return c.bytes }

// Len returns the number of packets currently held.
func (c *Cache) Len() int { return c.live }

// find returns seq's live entry, or nil.
func (c *Cache) find(seq uint16) *cacheEntry {
	e := &c.ring[c.index[seq]]
	if !e.live || e.seq != seq {
		return nil
	}
	return e
}

// Store remembers a just-sent media packet for possible retransmission and
// evicts whatever the byte and age bounds no longer cover.
func (c *Cache) Store(pkt *rtp.Packet, now time.Duration) {
	seq := pkt.Header.SequenceNumber
	if old := c.find(seq); old != nil {
		// Sequence number reuse (wrap): the old entry is long stale.
		c.kill(old)
	}
	if c.tail-c.head == len(c.ring) {
		c.grow()
	}
	slot := c.tail & (len(c.ring) - 1)
	size := pkt.MarshalSize()
	c.ring[slot] = cacheEntry{pkt: pkt, storedAt: now, size: size, seq: seq, live: true}
	c.index[seq] = uint32(slot)
	c.tail++
	c.live++
	c.bytes += size
	c.Stored++
	c.evict(now)
}

// Lookup returns the cached packet for a NACKed sequence number, or nil if
// it was never stored, already evicted, aged out, or resent to the retry
// cap. A hit counts one resend against the entry.
func (c *Cache) Lookup(seq uint16, now time.Duration) *rtp.Packet {
	e := c.find(seq)
	if e == nil || now-e.storedAt > c.cfg.CacheAge || e.resends >= c.cfg.MaxRetries {
		c.Misses++
		return nil
	}
	e.resends++
	return e.pkt
}

// kill drops a live entry, leaving its slot as a husk.
func (c *Cache) kill(e *cacheEntry) {
	c.bytes -= e.size
	c.live--
	c.Evicted++
	e.live = false
	e.pkt = nil
}

func (c *Cache) evict(now time.Duration) {
	mask := len(c.ring) - 1
	for ; c.head < c.tail; c.head++ {
		e := &c.ring[c.head&mask]
		if !e.live {
			continue // replaced by a later store of its seq: a husk
		}
		if c.bytes <= c.cfg.CacheBytes && now-e.storedAt <= c.cfg.CacheAge {
			break
		}
		c.kill(e)
	}
}

// grow doubles the ring, unrolling the live entries in store order from
// slot 0 (husks are dropped), and points the index at their new slots.
func (c *Cache) grow() {
	ring := make([]cacheEntry, 2*len(c.ring))
	mask := len(c.ring) - 1
	n := 0
	for p := c.head; p < c.tail; p++ {
		if e := c.ring[p&mask]; e.live {
			ring[n] = e
			c.index[e.seq] = uint32(n)
			n++
		}
	}
	c.ring, c.head, c.tail = ring, 0, n
}
