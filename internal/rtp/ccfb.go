package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// atoUnit is the resolution of the RFC 8888 arrival time offset (1/1024 s).
const atoUnit = time.Second / 1024

// atoMax is the saturating maximum of the 13-bit arrival time offset field.
const atoMax = 0x1FFF

// CCFBMetric is one per-packet metric block of an RFC 8888 report.
type CCFBMetric struct {
	Received bool
	ECN      uint8 // 2 bits
	// ArrivalOffset is how long before the report timestamp the packet
	// arrived. It saturates at ~8 s on the wire.
	ArrivalOffset time.Duration
}

// CCFBReport carries the metric blocks for one RTP stream, covering the
// consecutive sequence numbers [BeginSeq, BeginSeq+len(Metrics)-1].
type CCFBReport struct {
	SSRC     uint32
	BeginSeq uint16
	Metrics  []CCFBMetric
}

// CCFB is an RFC 8888 congestion control feedback packet.
type CCFB struct {
	SenderSSRC uint32
	Reports    []CCFBReport
	// Timestamp is the report generation time relative to the receiver's
	// epoch; it wraps every 65536 s on the wire.
	Timestamp time.Duration
}

// Marshal serializes the feedback packet.
func (f *CCFB) Marshal() ([]byte, error) {
	size := rtcpHeaderSize + 4 // header + sender ssrc
	for _, r := range f.Reports {
		if len(r.Metrics) == 0 {
			return nil, errors.New("rtp: ccfb report with no metric blocks")
		}
		if len(r.Metrics) > 16384 {
			return nil, fmt.Errorf("rtp: ccfb report with %d metric blocks exceeds maximum", len(r.Metrics))
		}
		n := len(r.Metrics)
		if n%2 == 1 {
			n++ // pad to 32-bit boundary
		}
		size += 8 + 2*n
	}
	size += 4 // report timestamp
	buf := make([]byte, size)
	hdr := rtcpHeader{Fmt: FmtCCFB, Type: TypeTransportFeedback, Length: wordLength(size)}
	if err := hdr.marshalTo(buf); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[4:], f.SenderSSRC)
	off := 8
	for _, r := range f.Reports {
		binary.BigEndian.PutUint32(buf[off:], r.SSRC)
		binary.BigEndian.PutUint16(buf[off+4:], r.BeginSeq)
		binary.BigEndian.PutUint16(buf[off+6:], uint16(len(r.Metrics)))
		off += 8
		for _, m := range r.Metrics {
			var w uint16
			if m.Received {
				w |= 1 << 15
				w |= uint16(m.ECN&0x3) << 13
				ato := m.ArrivalOffset / atoUnit
				if ato < 0 {
					ato = 0
				}
				if ato > atoMax {
					ato = atoMax
				}
				w |= uint16(ato)
			}
			binary.BigEndian.PutUint16(buf[off:], w)
			off += 2
		}
		if len(r.Metrics)%2 == 1 {
			off += 2 // zero padding block
		}
	}
	binary.BigEndian.PutUint32(buf[off:], ntp32(f.Timestamp))
	return buf, nil
}

// Unmarshal parses an RFC 8888 feedback packet. It reuses the storage of
// f.Reports and of their Metrics, so a caller decoding into the same CCFB
// again must be done with the previous contents.
func (f *CCFB) Unmarshal(buf []byte) error {
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return err
	}
	if hdr.Type != TypeTransportFeedback || hdr.Fmt != FmtCCFB {
		return fmt.Errorf("rtp: not a ccfb packet (pt=%d fmt=%d)", hdr.Type, hdr.Fmt)
	}
	want := (int(hdr.Length) + 1) * 4
	if len(buf) < want || want < rtcpHeaderSize+8 {
		return ErrShortPacket
	}
	buf = buf[:want]
	f.SenderSSRC = binary.BigEndian.Uint32(buf[4:])
	f.Timestamp = fromNTP32(binary.BigEndian.Uint32(buf[len(buf)-4:]))
	body := buf[8 : len(buf)-4]
	f.Reports = f.Reports[:0]
	off := 0
	for off < len(body) {
		if off+8 > len(body) {
			return ErrShortPacket
		}
		r := CCFBReport{
			SSRC:     binary.BigEndian.Uint32(body[off:]),
			BeginSeq: binary.BigEndian.Uint16(body[off+4:]),
		}
		if k := len(f.Reports); k < cap(f.Reports) {
			r.Metrics = f.Reports[:k+1][k].Metrics[:0]
		}
		n := int(binary.BigEndian.Uint16(body[off+6:]))
		off += 8
		padded := n
		if padded%2 == 1 {
			padded++
		}
		if off+2*padded > len(body) {
			return ErrShortPacket
		}
		if cap(r.Metrics) < n {
			r.Metrics = make([]CCFBMetric, 0, n)
		}
		for i := 0; i < n; i++ {
			w := binary.BigEndian.Uint16(body[off+2*i:])
			m := CCFBMetric{}
			if w>>15 == 1 {
				m.Received = true
				m.ECN = uint8(w >> 13 & 0x3)
				m.ArrivalOffset = time.Duration(w&atoMax) * atoUnit
			}
			r.Metrics = append(r.Metrics, m)
		}
		off += 2 * padded
		f.Reports = append(f.Reports, r)
	}
	return nil
}

// CCFBGenerator runs at the receiver and reproduces the feedback generation
// of the Ericsson SCReAM library the paper used: every reporting interval it
// emits one report covering the packet with the highest received sequence
// number and the Window-1 preceding sequence numbers. With the library's
// default Window of 64, more than 64 RTP packets can arrive between two
// 10 ms reports at rates above ≈7 Mbps, leaving packets unacknowledged and
// making the sender infer spurious losses — the defect analysed in §4.2.1 of
// the paper. Setting Window to 256 reproduces the paper's mitigation.
type CCFBGenerator struct {
	SenderSSRC uint32
	MediaSSRC  uint32
	// Window is the number of sequence numbers covered per report,
	// counting back from the highest received one. The Ericsson library
	// default is 64.
	Window int

	started bool
	highest int64 // extended (unwrapped) highest received sequence number

	// keys and at form a direct-mapped arrival table of a power-of-two
	// size no smaller than Window: slot ext&(len-1) holds the first arrival
	// time of extended sequence number ext, and keys holds ext itself (zero
	// marks an empty slot). Keying by the extended number means a slot
	// reused one 16-bit wrap later never reports a stale arrival, and a
	// slot is overwritten only by a newer number, so the table needs no
	// trimming.
	keys []int64
	at   []time.Duration

	// fb, report and metrics back the packet Report returns.
	fb      CCFB
	report  [1]CCFBReport
	metrics []CCFBMetric
}

// DefaultCCFBWindow is the ack window of the SCReAM library the paper used.
const DefaultCCFBWindow = 64

// extBase offsets extended sequence numbers so that they stay positive (and
// non-zero) even for packets that precede the first one received.
const extBase = 1 << 32

// NewCCFBGenerator returns a generator with the given ack window (0 means
// DefaultCCFBWindow).
func NewCCFBGenerator(senderSSRC, mediaSSRC uint32, window int) *CCFBGenerator {
	if window <= 0 {
		window = DefaultCCFBWindow
	}
	g := &CCFBGenerator{
		SenderSSRC: senderSSRC,
		MediaSSRC:  mediaSSRC,
		Window:     window,
	}
	g.reserve()
	return g
}

// reserve grows the arrival table to at least Window slots, keeping the
// arrivals it holds.
func (g *CCFBGenerator) reserve() {
	if len(g.keys) >= g.Window {
		return
	}
	size := 64
	for size < g.Window {
		size *= 2
	}
	keys, at := g.keys, g.at
	g.keys, g.at = make([]int64, size), make([]time.Duration, size)
	for i, ext := range keys {
		if ext != 0 {
			g.store(ext, at[i])
		}
	}
}

// store records the arrival of extended sequence number ext unless the
// table already holds it or a newer number in its slot. A number evicted by
// a newer one is at least the table size, so at least Window, behind the
// highest and can never be reported again.
func (g *CCFBGenerator) store(ext int64, at time.Duration) {
	i := ext & int64(len(g.keys)-1)
	if g.keys[i] >= ext {
		return
	}
	g.keys[i], g.at[i] = ext, at
}

// Record notes the arrival of RTP sequence number seq at time at. A
// duplicate keeps the first arrival.
func (g *CCFBGenerator) Record(seq uint16, at time.Duration) {
	g.reserve()
	var ext int64
	if !g.started {
		g.started = true
		ext = extBase + int64(seq)
	} else {
		ext = g.highest + int64(int16(seq-uint16(g.highest)))
	}
	if ext > g.highest {
		g.highest = ext
	}
	g.store(ext, at)
}

// Report builds the feedback packet for the current reporting instant, or
// returns nil when no packet has been received yet. The packet and its
// slices belong to the generator and are overwritten by the next Report.
func (g *CCFBGenerator) Report(now time.Duration) *CCFB {
	if !g.started {
		return nil
	}
	g.reserve()
	begin := g.highest - int64(g.Window-1)
	mask := int64(len(g.keys) - 1)
	metrics := g.metrics[:0]
	for ext := begin; ext <= g.highest; ext++ {
		m := CCFBMetric{}
		if i := ext & mask; g.keys[i] == ext {
			m.Received = true
			if off := now - g.at[i]; off > 0 {
				m.ArrivalOffset = off
			}
		}
		metrics = append(metrics, m)
	}
	g.metrics = metrics
	g.report[0] = CCFBReport{SSRC: g.MediaSSRC, BeginSeq: uint16(begin), Metrics: metrics}
	g.fb = CCFB{SenderSSRC: g.SenderSSRC, Reports: g.report[:], Timestamp: now}
	return &g.fb
}
