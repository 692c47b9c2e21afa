package core

import (
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/gcc"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/video"
)

// feedback cadences of the two implementations the paper used.
const (
	twccInterval = 50 * time.Millisecond
	ccfbInterval = 10 * time.Millisecond
)

// ccAdapter is the run's congestion-control regime: the controller, the
// player quirk the paper tied to it, and its feedback plane.
type ccAdapter struct {
	// raw is the concrete controller, for the type-asserted extensions
	// (RepairAware, the SCReAM counters). ctrl is what the sender and the
	// repair budget query: raw itself, or on bonded runs raw wrapped so the
	// encoder target also honors the aggregate path budget.
	raw, ctrl cc.Controller
	// latch reproduces the player pathology the paper observed with SCReAM
	// at high bitrates (§4.2.2).
	latch bool
	// plane and its report cadence; nil for the static regime, which takes
	// no feedback.
	plane    feedbackPlane
	interval time.Duration
}

// newCCAdapter is the one place the run selects its congestion-control
// regime. ssrc is the media stream the feedback describes.
func newCCAdapter(cfg Config, res *Result, ssrc uint32, watchdog bool) *ccAdapter {
	var timeout time.Duration
	if watchdog {
		timeout = cfg.watchdogTimeout()
	}
	a := &ccAdapter{}
	switch cfg.CC {
	case CCGCC:
		a.raw = gcc.New(gcc.Config{UseTrendline: cfg.GCCTrendline, FeedbackTimeout: timeout})
		a.plane = &twccPlane{ctrl: a.raw, rec: rtp.NewTWCCRecorder(1, ssrc)}
		a.interval = twccInterval
	case CCSCReAM:
		a.raw = scream.New(scream.Config{FeedbackTimeout: timeout})
		window := cfg.ScreamAckWindow
		if window == 0 {
			// The authors raised the Ericsson library's 64-packet window to
			// 256 for the campaign (§4.2.1); 64 remains available for the
			// ablation.
			window = 256
		}
		a.plane = &ccfbPlane{ctrl: a.raw, gen: rtp.NewCCFBGenerator(1, ssrc, window)}
		a.interval = cfg.ScreamFeedbackInterval
		if a.interval == 0 {
			a.interval = ccfbInterval
		}
		a.latch = true
	default:
		a.raw = cc.NewStatic(cfg.staticRate())
	}
	if tc, ok := a.raw.(cc.Traceable); ok {
		tc.SetTracer(res.Trace)
	}
	a.ctrl = a.raw
	return a
}

// feedbackPlane is a regime's congestion-control feedback path. It hides
// the wire format: the receiver side records arrivals and builds a report
// on the plane's timer; the sender side decodes each report into a
// plane-owned message and ack slice, joined with the sender's send
// records, before handing the acks to the controller.
type feedbackPlane interface {
	// record notes a media packet's first arrival at the receiver.
	record(h *rtp.Header, at time.Duration)
	// report marshals the receiver's next report, or returns nil when there
	// is nothing to send or it does not encode.
	report(now time.Duration) []byte
	// deliver decodes one report at the sender and feeds the controller.
	deliver(buf []byte, at time.Duration, snd *video.Sender)
}

// twccPlane is GCC's transport-wide feedback
// (draft-holmer-rmcat-transport-wide-cc-extensions-01).
type twccPlane struct {
	ctrl cc.Controller
	rec  *rtp.TWCCRecorder
	fb   rtp.TWCC
	acks []cc.Ack
}

func (f *twccPlane) record(h *rtp.Header, at time.Duration) {
	if tseq, ok := h.TransportSeq(); ok {
		f.rec.Record(tseq, at)
	}
}

func (f *twccPlane) report(time.Duration) []byte {
	if fb := f.rec.Flush(); fb != nil {
		buf, _ := fb.Marshal() // nil on error, e.g. delta overflow across a very long outage
		return buf
	}
	return nil
}

func (f *twccPlane) deliver(buf []byte, at time.Duration, snd *video.Sender) {
	if err := f.fb.Unmarshal(buf); err != nil {
		return
	}
	acks := f.acks[:0]
	for i, p := range f.fb.Packets {
		tseq := f.fb.BaseSeq + uint16(i)
		a := cc.Ack{TransportSeq: tseq, Received: p.Received, ArrivalTime: p.At}
		if rec, ok := snd.LookupTransport(tseq); ok {
			a.Seq, a.Size, a.SendTime = rec.Seq, rec.Size, rec.SendTime
		}
		acks = append(acks, a)
	}
	f.acks = acks
	f.ctrl.OnFeedback(at, acks)
}

// ccfbPlane is SCReAM's RFC 8888 feedback over an ack window.
type ccfbPlane struct {
	ctrl cc.Controller
	gen  *rtp.CCFBGenerator
	fb   rtp.CCFB
	acks []cc.Ack
}

func (f *ccfbPlane) record(h *rtp.Header, at time.Duration) {
	f.gen.Record(h.SequenceNumber, at)
}

func (f *ccfbPlane) report(now time.Duration) []byte {
	if fb := f.gen.Report(now); fb != nil {
		buf, _ := fb.Marshal() // nil on error
		return buf
	}
	return nil
}

func (f *ccfbPlane) deliver(buf []byte, at time.Duration, snd *video.Sender) {
	if err := f.fb.Unmarshal(buf); err != nil {
		return
	}
	for _, rep := range f.fb.Reports {
		acks := f.acks[:0]
		for i, m := range rep.Metrics {
			seq := rep.BeginSeq + uint16(i)
			a := cc.Ack{Seq: seq, Received: m.Received}
			if m.Received {
				a.ArrivalTime = f.fb.Timestamp - m.ArrivalOffset
			}
			if rec, ok := snd.LookupSeq(seq); ok {
				a.TransportSeq, a.Size, a.SendTime = rec.TransportSeq, rec.Size, rec.SendTime
			}
			acks = append(acks, a)
		}
		f.acks = acks
		f.ctrl.OnFeedback(at, acks)
	}
}
