package repair

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/rtp"
)

// mapCache is the oracle for Cache: the original map-backed store with a
// separate FIFO of (seq, storedAt) references, where a reference whose
// entry was replaced or removed is a husk.
type mapCache struct {
	cfg     Config
	entries map[uint16]*mapCacheEntry
	fifo    []fifoRef
	head    int
	bytes   int
	Stored  int
	Evicted int
	Misses  int
}

type mapCacheEntry struct {
	pkt      *rtp.Packet
	size     int
	storedAt time.Duration
	resends  int
}

type fifoRef struct {
	seq      uint16
	storedAt time.Duration
}

func newMapCache(cfg Config) *mapCache {
	return &mapCache{cfg: cfg, entries: make(map[uint16]*mapCacheEntry)}
}

func (c *mapCache) Len() int { return len(c.entries) }

func (c *mapCache) Store(pkt *rtp.Packet, now time.Duration) {
	seq := pkt.Header.SequenceNumber
	if old, ok := c.entries[seq]; ok {
		c.bytes -= old.size
		c.Evicted++
	}
	size := pkt.MarshalSize()
	c.entries[seq] = &mapCacheEntry{pkt: pkt, size: size, storedAt: now}
	c.fifo = append(c.fifo, fifoRef{seq: seq, storedAt: now})
	c.bytes += size
	c.Stored++
	c.evict(now)
}

func (c *mapCache) Lookup(seq uint16, now time.Duration) *rtp.Packet {
	e, ok := c.entries[seq]
	if !ok || now-e.storedAt > c.cfg.CacheAge || e.resends >= c.cfg.MaxRetries {
		c.Misses++
		return nil
	}
	e.resends++
	return e.pkt
}

func (c *mapCache) evict(now time.Duration) {
	for c.head < len(c.fifo) {
		ref := c.fifo[c.head]
		e, ok := c.entries[ref.seq]
		if !ok || e.storedAt != ref.storedAt {
			c.head++
			continue
		}
		if c.bytes <= c.cfg.CacheBytes && now-e.storedAt <= c.cfg.CacheAge {
			break
		}
		c.bytes -= e.size
		delete(c.entries, ref.seq)
		c.Evicted++
		c.head++
	}
	if c.head > len(c.fifo)/2 && c.head > 64 {
		c.fifo = append([]fifoRef(nil), c.fifo[c.head:]...)
		c.head = 0
	}
}

// cacheStream drives a Cache and the oracle with one randomized stream.
type cacheStream struct {
	name string
	cfg  Config
	n    int // stores
	// nextSeq picks the next stored sequence number.
	nextSeq func(r *rand.Rand, last uint16) uint16
	// step is the clock advance before a store; zero repeats the instant.
	step func(r *rand.Rand) time.Duration
	// maxPayload bounds the payload, so sizes vary within [0, maxPayload].
	maxPayload int
	lookups    int // lookups per store, at most
}

func sequential(_ *rand.Rand, last uint16) uint16 { return last + 1 }

// TestCacheMatchesMap checks every return value and counter of the ring
// cache against the map oracle after each step. The oracle's husk check
// compares store times, so it takes a number stored again at the very
// same instant for the live entry at its old FIFO slot; the streams move
// the clock before such a re-store (a media run stores one number per
// 65536 packets, never twice at one instant), and
// TestCacheReuseAtSameInstant pins the ring's own answer for that case.
func TestCacheMatchesMap(t *testing.T) {
	us := time.Microsecond
	streams := []cacheStream{
		{name: "media-rate", cfg: Config{CacheBytes: 4 << 20, CacheAge: 400 * time.Millisecond, MaxRetries: 3},
			n: 40_000, nextSeq: sequential, maxPayload: 1200, lookups: 2,
			step: func(r *rand.Rand) time.Duration {
				if r.Intn(4) == 0 {
					return time.Duration(r.Intn(2000)) * us
				}
				return 0 // the packets of one frame share an instant
			}},
		{name: "byte-bound", cfg: Config{CacheBytes: 20_000, CacheAge: time.Hour, MaxRetries: 2},
			n: 30_000, nextSeq: sequential, maxPayload: 1400, lookups: 3,
			step: func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(3)) * us }},
		{name: "age-bound", cfg: Config{CacheBytes: 1 << 30, CacheAge: 5 * time.Millisecond, MaxRetries: 4},
			n: 30_000, nextSeq: sequential, maxPayload: 100, lookups: 2,
			step: func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(400)) * us }},
		{name: "wrap-reuse", cfg: Config{CacheBytes: 1 << 30, CacheAge: time.Hour, MaxRetries: 1},
			n: 3 * 65536, nextSeq: sequential, maxPayload: 8, lookups: 1,
			step: func(r *rand.Rand) time.Duration { return time.Duration(1+r.Intn(2)) * us }},
		{name: "scattered-reuse", cfg: Config{CacheBytes: 3000, CacheAge: 2 * time.Millisecond, MaxRetries: 3},
			n: 60_000, maxPayload: 60, lookups: 3,
			nextSeq: func(r *rand.Rand, last uint16) uint16 {
				if r.Intn(3) == 0 {
					return last + uint16(r.Intn(64)) - 32
				}
				return last + 1
			},
			step: func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(50)) * us }},
	}
	maxRing := 0 // the ring's largest size over all streams
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(st.name))))
			got, want := NewCache(st.cfg), newMapCache(st.cfg)
			lastAt := map[uint16]time.Duration{}
			seq := uint16(r.Intn(1 << 16))
			now := time.Duration(0)
			for i := 0; i < st.n; i++ {
				seq = st.nextSeq(r, seq)
				now += st.step(r)
				if at, ok := lastAt[seq]; ok && at == now {
					now++ // see the test comment: no re-store at one instant
				}
				lastAt[seq] = now
				p := &rtp.Packet{Header: rtp.Header{SequenceNumber: seq}, Payload: make([]byte, r.Intn(st.maxPayload+1))}
				got.Store(p, now)
				want.Store(p, now)
				compareCaches(t, i, "store", got, want)
				for k := r.Intn(st.lookups + 1); k > 0; k-- {
					var q uint16
					switch r.Intn(4) {
					case 0:
						q = seq - uint16(r.Intn(16)) // fresh: exhausts retries
					case 1:
						q = seq - uint16(r.Intn(4096)) // evicted or aged out
					case 2:
						q = uint16(r.Intn(1 << 16)) // mostly never stored
					default:
						q = seq + 1 + uint16(r.Intn(8)) // not stored yet
					}
					at := now + time.Duration(r.Intn(3))*st.cfg.CacheAge/2
					if g, w := got.Lookup(q, at), want.Lookup(q, at); g != w {
						t.Fatalf("step %d: Lookup(%d, %v) = %p, oracle %p", i, q, at, g, w)
					}
					compareCaches(t, i, "lookup", got, want)
				}
				if len(got.ring) > maxRing {
					maxRing = len(got.ring)
				}
			}
		})
	}
	if maxRing < 1<<16 {
		t.Errorf("ring grew to %d slots; the wrap-reuse stream holds 65536 live entries", maxRing)
	}
}

func compareCaches(t *testing.T, step int, op string, got *Cache, want *mapCache) {
	t.Helper()
	if got.Len() != want.Len() || got.Bytes() != want.bytes || got.Stored != want.Stored ||
		got.Evicted != want.Evicted || got.Misses != want.Misses {
		t.Fatalf("step %d after %s: len/bytes/stored/evicted/misses = %d/%d/%d/%d/%d, oracle %d/%d/%d/%d/%d",
			step, op, got.Len(), got.Bytes(), got.Stored, got.Evicted, got.Misses,
			want.Len(), want.bytes, want.Stored, want.Evicted, want.Misses)
	}
}

// TestCacheReuseAtSameInstant: a number stored again at the instant of its
// previous store replaces it. The replaced slot is a husk, so eviction
// drops the older packets around it in store order and the new entry
// stays cached while the bounds cover it.
func TestCacheReuseAtSameInstant(t *testing.T) {
	cfg := Config{CacheBytes: 1 << 30, CacheAge: time.Second, MaxRetries: 1}
	c := NewCache(cfg)
	var pkts []*rtp.Packet
	for i := 0; i < 65536+2; i++ {
		p := &rtp.Packet{Header: rtp.Header{SequenceNumber: uint16(i)}}
		pkts = append(pkts, p)
		c.Store(p, 0)
	}
	if c.Len() != 65536 || c.Evicted != 2 {
		t.Fatalf("len=%d evicted=%d, want 65536 and 2", c.Len(), c.Evicted)
	}
	// Re-storing seq 5 under a bound one byte short must evict exactly the
	// oldest live entry, seq 2, and keep the re-stored seq 0 that sits
	// behind the husk of its first store.
	c.cfg.CacheBytes = c.Bytes() - 1
	c.Store(&rtp.Packet{Header: rtp.Header{SequenceNumber: 5}}, 0)
	if got := c.Lookup(0, 0); got != pkts[65536] {
		t.Fatalf("re-stored seq 0 lost: got %p, want %p", got, pkts[65536])
	}
	if c.Lookup(2, 0) != nil || c.Lookup(3, 0) != pkts[3] {
		t.Fatal("eviction did not take seq 2, the oldest live entry")
	}
}
