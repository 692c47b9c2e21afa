package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/flight"
	"rpivideo/internal/gcc"
	"rpivideo/internal/link"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// Feedback cadences and defaults of the simulated pipeline (internal/core),
// restated here because the replays feed the layers directly.
const (
	twccInterval       = 50 * time.Millisecond
	ccfbInterval       = 10 * time.Millisecond
	screamWindow       = 256
	watchdogTimeout    = 750 * time.Millisecond
	targetSampleTick   = 100 * time.Millisecond
	urbanStaticRate    = 25e6
	nonUrbanStaticRate = 8e6
)

// mediaPkt is one media packet the traced run offered to an uplink, with
// its fate. mseq numbers media packets in send order across all uplinks: it
// stands in for the RTP and transport-wide sequence numbers the trace does
// not carry.
type mediaPkt struct {
	dir      obs.Dir
	mseq     int
	size     int
	sent     time.Duration
	received bool
	dropped  bool
	at       time.Duration // arrival or drop time
}

// replayInput is the traced run's input stream, split per layer. It is
// built once, outside every timed region.
type replayInput struct {
	cfg    core.Config
	dur    time.Duration
	events []obs.Event
	result *core.Result   // the traced run
	runs   []*core.Result // the traced campaign, for core.summarize
	ref    string         // the untraced registry digest of result

	media  []mediaPkt // in send order
	fates  []int      // indices into media, in arrival/drop order
	sends  []obs.Event
	plays  []obs.Event
	skips  int
	ccEvs  []obs.Event
	nacks  []obs.Event
	healed []obs.Event // repair-ok events

	// The volumes the trace recorded, which the replay self-checks compare
	// against what each replay fed: uplink sends by class, media arrivals
	// and drops, and NACKed sequence numbers.
	mediaSends, ctrlSends, rtxSends int
	recvs, drops                    int
	nacked                          int
}

// isUplink reports whether an event belongs to a media uplink.
func isUplink(d obs.Dir) bool { return d == obs.DirUp || d == obs.DirUp2 }

// isMediaPkt reports whether an event is a media packet's send, arrival or
// drop on an uplink (not control-plane, not RTX).
func isMediaPkt(ev obs.Event) bool {
	switch ev.Kind {
	case obs.KindSend, obs.KindRecv, obs.KindDrop:
		return isUplink(ev.Dir) && ev.Flags == 0
	}
	return false
}

// newReplayInput indexes a traced run's events.
func newReplayInput(r *core.Result, runs []*core.Result, ref string) *replayInput {
	in := &replayInput{cfg: r.Config, dur: r.Duration, events: r.Trace.Events(), result: r, runs: runs, ref: ref}
	type key struct {
		dir obs.Dir
		id  int64
	}
	byID := make(map[key]int)
	for _, ev := range in.events {
		switch ev.Kind {
		case obs.KindSend:
			if !isUplink(ev.Dir) {
				continue
			}
			in.sends = append(in.sends, ev)
			switch {
			case ev.Flags&obs.FlagCtrl != 0:
				in.ctrlSends++
				continue
			case ev.Flags&obs.FlagRTX != 0:
				in.rtxSends++
				continue
			}
			in.mediaSends++
			byID[key{ev.Dir, ev.Seq}] = len(in.media)
			in.media = append(in.media, mediaPkt{dir: ev.Dir, mseq: len(in.media), size: int(ev.Aux), sent: ev.T})
		case obs.KindRecv, obs.KindDrop:
			if !isUplink(ev.Dir) || ev.Flags != 0 {
				continue
			}
			i, ok := byID[key{ev.Dir, ev.Seq}]
			if !ok {
				continue
			}
			p := &in.media[i]
			p.at = ev.T
			if ev.Kind == obs.KindRecv {
				p.received = true
				in.recvs++
			} else {
				p.dropped = true
				in.drops++
			}
			in.fates = append(in.fates, i)
		case obs.KindFramePlay:
			in.plays = append(in.plays, ev)
		case obs.KindFrameSkip:
			in.skips++
		case obs.KindCC:
			in.ccEvs = append(in.ccEvs, ev)
		case obs.KindNack:
			in.nacks = append(in.nacks, ev)
			in.nacked += int(ev.Aux)
		case obs.KindRepairOK:
			in.healed = append(in.healed, ev)
		}
	}
	return in
}

// replay feeds one layer the traced input through the layer's public
// functions, checks that it fed the volume the trace recorded, and returns
// the number of calls it made. active reports whether the workload uses the
// layer at all; an idle layer reports zero.
type replay struct {
	name   string
	active func(in *replayInput) bool
	run    func(in *replayInput, sp *span) (int, error)
}

func always(*replayInput) bool { return true }

func isGCC(in *replayInput) bool    { return in.cfg.CC == core.CCGCC }
func isSCReAM(in *replayInput) bool { return in.cfg.CC == core.CCSCReAM }
func repairOn(in *replayInput) bool { return in.cfg.Repair.Enabled }

// replays is the per-layer ledger, in report order.
var replays = []replay{
	{"sim.schedule", always, replaySim},
	{"link.serve", always, replayLink},
	{"cell.step", always, replayCell},
	{"flight.at", always, replayFlight},
	{"gcc.on_feedback", isGCC, replayGCC},
	{"scream.on_feedback", isSCReAM, replaySCReAM},
	{"rtp.twcc", isGCC, replayTWCC},
	{"rtp.ccfb", isSCReAM, replayCCFB},
	{"rtp.packetize", always, replayPacketize},
	{"rtp.depacketize", always, replayDepacketize},
	{"video.encode", always, replayEncode},
	{"repair.detector", repairOn, replayDetector},
	{"repair.cache", repairOn, replayCache},
	{"metrics.record", always, replayMetrics},
	{"obs.loghist", always, replayLogHist},
	{"core.registry", always, replayRegistry},
	{"core.summarize", always, replaySummarize},
}

// expect is a replay self-check: the replay fed the volume the trace
// recorded.
func expect(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: replayed %d, trace recorded %d", what, got, want)
	}
	return nil
}

// replaySim schedules the traced timeline on a fresh simulator: a periodic
// task like the run's target sampler, one At per non-media event, and per
// media packet an At at its send time that arms its delivery with After, or,
// for a dropped packet, arms a timer and cancels it with Stop.
func replaySim(in *replayInput, sp *span) (int, error) {
	sp.begin()
	defer sp.end()
	s := sim.New(in.cfg.Seed)
	fired, ticks := 0, 0
	fire := func() { fired++ }
	s.Every(0, targetSampleTick, func() { ticks++ })
	calls := 1
	var armed []*mediaPkt
	next := 0
	arm := func() {
		p := armed[next]
		next++
		if p.received {
			s.After(p.at-p.sent, fire)
			return
		}
		s.After(time.Second, fire).Stop()
	}
	want := 0
	for _, ev := range in.events {
		if isMediaPkt(ev) {
			continue // replayed per packet below
		}
		s.At(ev.T, fire)
		calls++
		want++
	}
	for i := range in.media {
		p := &in.media[i]
		if !p.received && !p.dropped {
			continue // in flight at the horizon: arms nothing
		}
		armed = append(armed, p)
		s.At(p.sent, arm)
		calls += 2 // At + After, and Stop for a drop
		if p.dropped {
			calls++
		}
	}
	s.RunUntil(in.dur)
	calls++
	if err := expect("sim events fired", fired, want+in.recvs); err != nil {
		return 0, err
	}
	if err := expect("sim packets armed", next, in.recvs+in.drops); err != nil {
		return 0, err
	}
	return calls, expect("sim periodic ticks", ticks, int(in.dur/targetSampleTick)+1)
}

// radio builds a run's mobility profile and radio chain the way
// internal/core does, from the run's own seed streams.
func radio(cfg core.Config, s *sim.Simulator) (flight.Profile, *cell.Machine, cell.HandoverConfig) {
	var prof flight.Profile
	if cfg.Air {
		prof = flight.StandardFlight()
	} else {
		prof = flight.GroundProfile(6*time.Minute, s.Stream("ground"))
	}
	rng := s.Stream("cell")
	bss := cfg.Cells
	if bss == nil {
		bss = cell.Deployment(cfg.Env, cfg.Op, rng)
	}
	model := cell.NewSignalModel(cfg.Env, bss, cell.DefaultSignalConfigFor(cfg.Env), rng)
	hoCfg := cell.DefaultHandoverConfigFor(cfg.Env)
	hoCfg.DAPS = cfg.DAPS
	if cfg.Faults.RLF {
		hoCfg.RLF = cell.DefaultRLFConfig()
	}
	return prof, cell.NewMachine(model, hoCfg, cfg.Air, rng), hoCfg
}

// replayLink serves the traced uplink sends — media, control and RTX, with
// their sizes and send times — through two fresh links, the second serving
// a bonded run's secondary path.
func replayLink(in *replayInput, sp *span) (int, error) {
	s := sim.New(in.cfg.Seed)
	prof, machine, _ := radio(in.cfg, s)
	lp := link.ProfileFor(in.cfg.Env, in.cfg.Op)
	lp.AQM = in.cfg.AQM
	var links [2]*link.Link
	sp.begin()
	for i := range links {
		links[i] = link.New(s, lp, machine, prof.At, s.Stream(fmt.Sprintf("uplink%d", i)))
		links[i].Deliver = func(any, int, time.Duration, time.Duration) {}
	}
	next := 0
	send := func() {
		ev := in.sends[next]
		next++
		l := links[0]
		if ev.Dir == obs.DirUp2 {
			l = links[1]
		}
		switch {
		case ev.Flags&obs.FlagCtrl != 0:
			l.SendControl(nil, int(ev.Aux))
		case ev.Flags&obs.FlagRTX != 0:
			l.SendRTX(nil, int(ev.Aux))
		default:
			l.Send(nil, int(ev.Aux))
		}
	}
	for _, ev := range in.sends {
		s.At(ev.T, send)
	}
	s.RunUntil(in.dur)
	sp.end()
	if err := expect("link media sends", links[0].Sent+links[1].Sent, in.mediaSends); err != nil {
		return 0, err
	}
	if err := expect("link control sends", links[0].CtrlSent+links[1].CtrlSent, in.ctrlSends); err != nil {
		return 0, err
	}
	if err := expect("link rtx sends", links[0].RtxSent+links[1].RtxSent, in.rtxSends); err != nil {
		return 0, err
	}
	return len(in.sends), nil
}

// steps returns the measurement instants the run stepped its handover
// machine at.
func steps(in *replayInput, interval time.Duration) []time.Duration {
	var out []time.Duration
	for t := time.Duration(0); t <= in.dur; t += interval {
		out = append(out, t)
	}
	return out
}

// replayCell steps a fresh handover machine at the measurement interval
// along the run's trajectory.
func replayCell(in *replayInput, sp *span) (int, error) {
	s := sim.New(in.cfg.Seed)
	prof, machine, hoCfg := radio(in.cfg, s)
	at := steps(in, hoCfg.MeasurementInterval)
	states := make([]flight.State, len(at))
	for i, t := range at {
		states[i] = prof.At(t)
	}
	sp.begin()
	for i, t := range at {
		machine.Step(t, states[i])
	}
	sp.end()
	return len(at), expect("cell steps", len(at), int(in.dur/hoCfg.MeasurementInterval)+1)
}

// altSink keeps the flight lookups observable so none is optimized away.
var altSink float64

// replayFlight looks the trajectory up at every measurement step and every
// media send, as the handover machine and the per-altitude delay buckets do.
func replayFlight(in *replayInput, sp *span) (int, error) {
	s := sim.New(in.cfg.Seed)
	prof, _, hoCfg := radio(in.cfg, s)
	at := steps(in, hoCfg.MeasurementInterval)
	for _, p := range in.media {
		at = append(at, p.sent)
	}
	sp.begin()
	for _, t := range at {
		altSink += prof.At(t).Alt
	}
	sp.end()
	return len(at), expect("flight lookups", len(at), int(in.dur/hoCfg.MeasurementInterval)+1+in.mediaSends)
}

// feedback groups the traced media packets' fates into the reports a
// receiver at the given cadence would send: report k, at k*interval, acks
// every packet settled in ((k-1)*interval, k*interval].
type feedback struct {
	sent    []cc.SentPacket // in send order
	reports []time.Duration
	acks    [][]cc.Ack
}

func buildFeedback(in *replayInput, interval time.Duration) feedback {
	var fb feedback
	for _, p := range in.media {
		fb.sent = append(fb.sent, cc.SentPacket{TransportSeq: uint16(p.mseq), Seq: uint16(p.mseq), Size: p.size, SendTime: p.sent})
	}
	for _, i := range in.fates {
		p := in.media[i]
		at := (p.at + interval - 1) / interval * interval
		if at == 0 {
			at = interval
		}
		if n := len(fb.reports); n == 0 || fb.reports[n-1] != at {
			fb.reports = append(fb.reports, at)
			fb.acks = append(fb.acks, nil)
		}
		a := cc.Ack{TransportSeq: uint16(p.mseq), Seq: uint16(p.mseq), Size: p.size, SendTime: p.sent, Received: p.received}
		if p.received {
			a.ArrivalTime = p.at
		}
		fb.acks[len(fb.acks)-1] = append(fb.acks[len(fb.acks)-1], a)
	}
	return fb
}

// feed drives a controller with the feedback: before each report, every
// packet sent by its time is announced with OnPacketSent. It returns the
// OnFeedback calls and the acks fed.
func (fb feedback) feed(c cc.Controller) (int, int) {
	next, acks := 0, 0
	for k, at := range fb.reports {
		for next < len(fb.sent) && fb.sent[next].SendTime <= at {
			c.OnPacketSent(fb.sent[next])
			next++
		}
		c.OnFeedback(at, fb.acks[k])
		acks += len(fb.acks[k])
	}
	return len(fb.reports), acks
}

// feedbackTimeout is the watchdog threshold core arms when faults enable it.
func feedbackTimeout(cfg core.Config) time.Duration {
	if !cfg.Faults.Enabled() || !cfg.Faults.Watchdog {
		return 0
	}
	if cfg.Faults.WatchdogTimeout > 0 {
		return cfg.Faults.WatchdogTimeout
	}
	return watchdogTimeout
}

// replayGCC feeds a fresh GCC controller acks built from the traced media
// fates at the TWCC cadence; ns_per_call covers OnPacketSent too.
func replayGCC(in *replayInput, sp *span) (int, error) {
	fb := buildFeedback(in, twccInterval)
	sp.begin()
	c := gcc.New(gcc.Config{UseTrendline: in.cfg.GCCTrendline, FeedbackTimeout: feedbackTimeout(in.cfg)})
	calls, acks := fb.feed(c)
	sp.end()
	return calls, expect("gcc acks", acks, in.recvs+in.drops)
}

// replaySCReAM feeds a fresh SCReAM controller acks built from the traced
// media fates at the RFC 8888 cadence; ns_per_call covers OnPacketSent too.
func replaySCReAM(in *replayInput, sp *span) (int, error) {
	interval := in.cfg.ScreamFeedbackInterval
	if interval == 0 {
		interval = ccfbInterval
	}
	fb := buildFeedback(in, interval)
	sp.begin()
	c := scream.New(scream.Config{FeedbackTimeout: feedbackTimeout(in.cfg)})
	calls, acks := fb.feed(c)
	sp.end()
	return calls, expect("scream acks", acks, in.recvs+in.drops)
}

// arrivals lists the received media packets in arrival order.
func arrivals(in *replayInput) []mediaPkt {
	var out []mediaPkt
	for _, i := range in.fates {
		if in.media[i].received {
			out = append(out, in.media[i])
		}
	}
	return out
}

// replayTWCC records the traced arrivals into a TWCC recorder, flushes it at
// the GCC cadence, and marshals and unmarshals every report. A call is one
// recorded arrival.
func replayTWCC(in *replayInput, sp *span) (int, error) {
	arr := arrivals(in)
	ssrc := video.DefaultSenderConfig().SSRC
	recorded, reported := 0, 0
	sp.begin()
	rec := rtp.NewTWCCRecorder(1, ssrc)
	flush := func() error {
		fb := rec.Flush()
		if fb == nil {
			return nil
		}
		buf, err := fb.Marshal()
		if err != nil {
			return nil // the pipeline drops an unencodable report too
		}
		var back rtp.TWCC
		if err := back.Unmarshal(buf); err != nil {
			return fmt.Errorf("twcc unmarshal: %w", err)
		}
		for _, p := range back.Packets {
			if p.Received {
				reported++
			}
		}
		return nil
	}
	next := twccInterval
	for _, p := range arr {
		for p.at > next {
			if err := flush(); err != nil {
				sp.end()
				return 0, err
			}
			next += twccInterval
		}
		rec.Record(uint16(p.mseq), p.at)
		recorded++
	}
	err := flush()
	sp.end()
	if err != nil {
		return 0, err
	}
	if err := expect("twcc arrivals recorded", recorded, in.recvs); err != nil {
		return 0, err
	}
	if reported > recorded {
		return 0, fmt.Errorf("twcc reports acked %d arrivals, only %d recorded", reported, recorded)
	}
	return recorded, nil
}

// replayCCFB records the traced arrivals into an RFC 8888 generator, reports
// at the SCReAM cadence, and marshals and unmarshals every report. A call
// is one recorded arrival.
func replayCCFB(in *replayInput, sp *span) (int, error) {
	arr := arrivals(in)
	ssrc := video.DefaultSenderConfig().SSRC
	interval := in.cfg.ScreamFeedbackInterval
	if interval == 0 {
		interval = ccfbInterval
	}
	window := in.cfg.ScreamAckWindow
	if window == 0 {
		window = screamWindow
	}
	recorded, reports := 0, 0
	sp.begin()
	gen := rtp.NewCCFBGenerator(1, ssrc, window)
	report := func(now time.Duration) error {
		fb := gen.Report(now)
		if fb == nil {
			return nil
		}
		buf, err := fb.Marshal()
		if err != nil {
			return nil // the pipeline drops an unencodable report too
		}
		var back rtp.CCFB
		if err := back.Unmarshal(buf); err != nil {
			return fmt.Errorf("ccfb unmarshal: %w", err)
		}
		reports++
		return nil
	}
	next := interval
	for _, p := range arr {
		for p.at > next {
			if err := report(next); err != nil {
				sp.end()
				return 0, err
			}
			next += interval
		}
		gen.Record(uint16(p.mseq), p.at)
		recorded++
	}
	err := report(next)
	sp.end()
	if err != nil {
		return 0, err
	}
	if reports == 0 && recorded > 0 {
		return 0, fmt.Errorf("ccfb: %d arrivals recorded but no report produced", recorded)
	}
	return recorded, expect("ccfb arrivals recorded", recorded, in.recvs)
}

// frames groups the traced media sends by frame interval: each interval
// with sends becomes one frame sized so the packetizer, whose payload per
// packet is the MTU less its worst-case header, splits it into exactly that
// many packets.
func frames(in *replayInput) []rtp.FrameInfo {
	fps := video.DefaultEncoderConfig().FPS
	interval := time.Second / time.Duration(fps)
	maxPayload := video.DefaultSenderConfig().MTU - (rtp.HeaderSize + 8)
	var out []rtp.FrameInfo
	last := -1
	for _, p := range in.media {
		k := int(p.sent / interval)
		if k != last {
			out = append(out, rtp.FrameInfo{Num: uint32(k), EncodeTime: time.Duration(k) * interval, Keyframe: k%fps == 0})
			last = k
		}
		out[len(out)-1].Size += maxPayload
	}
	return out
}

// replayPacketize packetizes the reconstructed frames. A call is one frame.
func replayPacketize(in *replayInput, sp *span) (int, error) {
	fs := frames(in)
	cfg := video.DefaultSenderConfig()
	pkts := 0
	sp.begin()
	p := rtp.NewPacketizer(cfg.SSRC, cfg.PayloadType, cfg.MTU)
	for _, f := range fs {
		pkts += len(p.Packetize(f))
	}
	sp.end()
	return len(fs), expect("packetized media packets", pkts, in.mediaSends)
}

// replayDepacketize reassembles the packetized frames. A call is one pushed
// packet.
func replayDepacketize(in *replayInput, sp *span) (int, error) {
	fs := frames(in)
	cfg := video.DefaultSenderConfig()
	p := rtp.NewPacketizer(cfg.SSRC, cfg.PayloadType, cfg.MTU)
	var pkts []*rtp.Packet
	for _, f := range fs {
		pkts = append(pkts, p.Packetize(f)...)
	}
	complete := 0
	sp.begin()
	d := rtp.NewDepacketizer()
	for i, pkt := range pkts {
		st, err := d.Push(pkt, time.Duration(i))
		if err != nil {
			sp.end()
			return 0, fmt.Errorf("depacketize: %w", err)
		}
		if st.Complete() {
			d.Delete(st.Num)
			complete++
		}
	}
	sp.end()
	if err := expect("depacketized frames", complete, len(fs)); err != nil {
		return 0, err
	}
	return len(pkts), expect("depacketized media packets", len(pkts), in.mediaSends)
}

// staticRate is core's constant bitrate for a static-rate run.
func staticRate(cfg core.Config) float64 {
	switch {
	case cfg.StaticRate > 0:
		return cfg.StaticRate
	case cfg.Env == cell.Urban:
		return urbanStaticRate
	default:
		return nonUrbanStaticRate
	}
}

// replayEncode encodes one frame per frame interval over the horizon, at
// the target bitrate the traced controller decisions set. A call is one
// frame.
func replayEncode(in *replayInput, sp *span) (int, error) {
	ecfg := video.DefaultEncoderConfig()
	interval := time.Second / time.Duration(ecfg.FPS)
	rate := staticRate(in.cfg)
	if in.cfg.CC != core.CCStatic {
		rate = ecfg.MinRate
	}
	n := 0
	sp.begin()
	enc := video.NewEncoder(ecfg, rate, rand.New(rand.NewSource(in.cfg.Seed)))
	next := 0
	for t := time.Duration(0); t <= in.dur; t += interval {
		for next < len(in.ccEvs) && in.ccEvs[next].T <= t {
			enc.SetTarget(in.ccEvs[next].V)
			next++
		}
		enc.NextFrame(t)
		n++
	}
	sp.end()
	if shown := len(in.plays) + in.skips; n < shown {
		return 0, fmt.Errorf("encoded %d frames, trace played or skipped %d", n, shown)
	}
	return n, expect("encoded frames", n, int(in.dur/interval)+1)
}

// replayDetector feeds a fresh NACK loss detector the traced arrivals and
// ticks it at its cadence. A call is one OnPacket or Tick.
func replayDetector(in *replayInput, sp *span) (int, error) {
	rcfg := in.cfg.Repair.WithDefaults()
	arr := arrivals(in)
	ticks, fed := 0, 0
	sp.begin()
	det := repair.NewDetector(rcfg)
	next := rcfg.TickInterval
	for _, p := range arr {
		for p.at > next {
			det.Tick(next)
			ticks++
			next += rcfg.TickInterval
		}
		det.OnPacket(uint16(p.mseq), p.at)
		fed++
	}
	for ; next <= in.dur; next += rcfg.TickInterval {
		det.Tick(next)
		ticks++
	}
	sp.end()
	if err := expect("detector arrivals", fed, in.recvs); err != nil {
		return 0, err
	}
	return fed + ticks, expect("detector ticks", ticks, int(in.dur/rcfg.TickInterval))
}

// replayCache stores every traced media send in a fresh retransmission
// cache and looks up every sequence number the traced NACKs requested, in
// time order. A call is one Store or Lookup.
func replayCache(in *replayInput, sp *span) (int, error) {
	rcfg := in.cfg.Repair.WithDefaults()
	pkts := make([]rtp.Packet, len(in.media))
	for i, p := range in.media {
		pkts[i] = rtp.Packet{Header: rtp.Header{SequenceNumber: uint16(p.mseq)}, VirtualPayloadLen: p.size - rtp.HeaderSize}
	}
	stored, looked := 0, 0
	sp.begin()
	c := repair.NewCache(rcfg)
	next := 0
	for _, ev := range in.nacks {
		for next < len(pkts) && in.media[next].sent <= ev.T {
			c.Store(&pkts[next], in.media[next].sent)
			next++
			stored++
		}
		for i := int64(0); i < ev.Aux; i++ {
			c.Lookup(uint16(ev.Seq+i), ev.T)
			looked++
		}
	}
	for ; next < len(pkts); next++ {
		c.Store(&pkts[next], in.media[next].sent)
		stored++
	}
	sp.end()
	if err := expect("cache stores", stored, in.mediaSends); err != nil {
		return 0, err
	}
	return stored + looked, expect("cache lookups", looked, in.nacked)
}

// replayMetrics adds the traced one-way and playback delays to a Dist and
// a Sketch, as a run and a campaign summary record them. A call is one add.
func replayMetrics(in *replayInput, sp *span) (int, error) {
	owd, play := delays(in)
	sp.begin()
	var d, pd metrics.Dist
	var sk, psk metrics.Sketch
	for _, v := range owd {
		d.Add(v)
		sk.Add(v)
	}
	for _, v := range play {
		pd.Add(v)
		psk.Add(v)
	}
	sp.end()
	adds := 2 * (len(owd) + len(play))
	if err := expect("recorded delays", d.N()+pd.N()+sk.N()+psk.N(), adds); err != nil {
		return 0, err
	}
	return adds, expect("recorded one-way delays", d.N(), in.recvs)
}

// delays returns the traced media one-way delays and frame playback
// latencies in milliseconds.
func delays(in *replayInput) (owd, play []float64) {
	for _, ev := range in.events {
		if ev.Kind == obs.KindRecv && isMediaPkt(ev) {
			owd = append(owd, ev.V)
		}
	}
	for _, ev := range in.plays {
		play = append(play, float64(ev.Aux)/1e3)
	}
	return owd, play
}

// replayLogHist observes the traced one-way delays, playback latencies and
// repair delays in a log histogram. A call is one observation.
func replayLogHist(in *replayInput, sp *span) (int, error) {
	owd, play := delays(in)
	sp.begin()
	h := obs.NewLogHistogram()
	for _, v := range owd {
		h.Observe(v)
	}
	for _, v := range play {
		h.Observe(v)
	}
	for _, ev := range in.healed {
		h.Observe(ev.V)
	}
	sp.end()
	n := len(owd) + len(play) + len(in.healed)
	return n, expect("log histogram observations", int(h.Count()), in.recvs+len(in.plays)+len(in.healed))
}

// replayRegistry renders the traced run's metrics registry and exports it,
// checking the export against the untraced run's digest. A call is one
// registry built and written.
func replayRegistry(in *replayInput, sp *span) (int, error) {
	var buf bytes.Buffer
	sp.begin()
	err := in.result.MetricsRegistry().WriteJSON(&buf)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("registry export: %w", err)
	}
	if d := digestBytes(buf.Bytes()); d != in.ref {
		return 0, fmt.Errorf("registry digest %.12s differs from the untraced run's %.12s", d, in.ref)
	}
	return 1, nil
}

// replaySummarize folds the traced campaign's results into a Summary. A
// call is one folded run.
func replaySummarize(in *replayInput, sp *span) (int, error) {
	sp.begin()
	s := core.Summarize(in.runs)
	sp.end()
	return len(in.runs), expect("summarized runs", s.Runs, len(in.runs))
}
