package repair

import (
	"testing"
	"time"

	"rpivideo/internal/rtp"
)

// mediaStream stores packets as a media run does: 1200-byte payloads at
// ~2500 pkt/s (400 µs apart), cycling through a fixed pool whose packets
// have long left the cache when they come round again.
type mediaStream struct {
	c    *Cache
	pool []*rtp.Packet
	seq  uint16
	now  time.Duration
}

func newMediaStream() *mediaStream {
	m := &mediaStream{c: NewCache(DefaultConfig().WithDefaults()), pool: make([]*rtp.Packet, 4096)}
	for i := range m.pool {
		m.pool[i] = &rtp.Packet{Payload: make([]byte, 1200)}
	}
	return m
}

// step stores the next packet and, every eighth packet, answers a NACK
// for one sent 40 packets (16 ms) earlier.
func (m *mediaStream) step() *rtp.Packet {
	p := m.pool[int(m.seq)%len(m.pool)]
	p.Header.SequenceNumber = m.seq
	m.c.Store(p, m.now)
	var hit *rtp.Packet
	if m.seq%8 == 0 {
		hit = m.c.Lookup(m.seq-40, m.now)
	}
	m.seq++
	m.now += 400 * time.Microsecond
	return hit
}

var cacheSink *rtp.Packet

// BenchmarkCacheStore measures one Store (plus an eighth of a Lookup) in
// steady state at the default 4 MB / 400 ms bounds.
func BenchmarkCacheStore(b *testing.B) {
	m := newMediaStream()
	for i := 0; i < 1<<17; i++ { // past a seq wrap, ring at full size
		m.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cacheSink = m.step()
	}
}

// TestCacheSteadyStateAllocs pins Store and Lookup to zero allocations
// once the ring has grown to the working set.
func TestCacheSteadyStateAllocs(t *testing.T) {
	m := newMediaStream()
	for i := 0; i < 1<<17; i++ {
		m.step()
	}
	if m.c.Len() == 0 || m.c.Evicted == 0 {
		t.Fatalf("warm-up left len=%d evicted=%d", m.c.Len(), m.c.Evicted)
	}
	if allocs := testing.AllocsPerRun(5000, func() { cacheSink = m.step() }); allocs != 0 {
		t.Errorf("Store+Lookup allocate %.2f times per packet, want 0", allocs)
	}
	if m.c.Lookup(m.seq-40, m.now) == nil {
		t.Error("a NACK 40 packets back missed the cache")
	}
}
