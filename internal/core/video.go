package core

import (
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/metrics"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/video"
)

// wireVideo builds the RTP video pipeline over the primary chain and, on
// bonded runs, the secondary. The timers register in a fixed order after
// the primary chain's measurement task: the secondary chain's and the bond
// tick, the player pump, the NACK tick, the sender and receiver reports,
// the CC feedback, target sampling, and last the sender's frame clock.
func (ss *session) wireVideo(cfg Config, chain *radioChain, stateAt func(time.Duration) flight.State) {
	s, res := ss.s, ss.res
	faultsOn := cfg.Faults.Enabled()
	ss.bond = setupBond(s, cfg, res, chain.uplink, stateAt)
	scfg := video.DefaultSenderConfig()
	ss.cc = newCCAdapter(cfg, res, scfg.SSRC, faultsOn && cfg.Faults.Watchdog)
	if ss.bond != nil {
		ss.uplinks = ss.bond.uplinks[:]
		ss.cc.ctrl = cc.NewBonded(ss.cc.raw, ss.bond.mgr.Budget)
	}
	ss.snd = video.NewSender(s, scfg, ss.cc.ctrl, s.Stream("encoder"))
	pcfg := video.DefaultPlayerConfig()
	if cfg.JitterBuffer > 0 {
		pcfg.JitterBuffer = cfg.JitterBuffer
	}
	pcfg.LatchQuirk = ss.cc.latch
	if cfg.DropOnLatency {
		pcfg.DropOnLatency = true
		pcfg.DropThreshold = cfg.DropThreshold
		if pcfg.DropThreshold == 0 {
			pcfg.DropThreshold = pcfg.JitterBuffer + 100*time.Millisecond
		}
	}
	pcfg.KeyframeRecovery = faultsOn && cfg.Faults.KeyframeRecovery
	ss.pl = video.NewPlayer(s, pcfg, video.DefaultSSIMModel(), ss.snd.FrameEncoding)
	ss.pl.SetLatencyHist(res.Telemetry.LogHistogram(TelemetryFrameDelay))
	ss.pl.SetTracer(res.Trace)
	if pcfg.KeyframeRecovery {
		// The receiver's PLI rides the feedback path: it reaches the sender
		// only if the downlink is alive, as a real keyframe request would.
		ss.pl.KeyframeRequest = func() { chain.downlink.Send(kfRequest{}, 40) }
	}
	ss.rep = newRepairStage(s, cfg, res, ss.cc, scfg, chain)
	ss.rx = &receiver{res: res, stateAt: stateAt, pl: ss.pl, plane: ss.cc.plane, rep: ss.rep,
		stats:   rtp.NewReceptionStats(scfg.SSRC, rtp.VideoClockRate),
		goodput: make([]int, int(ss.dur/time.Second)+1)}

	// The media path, decided once: the primary uplink alone, or every
	// bonded path under the bond manager's routing.
	send := func(p *rtp.Packet, size int) { chain.uplink.Send(p, size) }
	if ss.bond != nil {
		send = ss.bond.send
		ss.bond.attach(ss.rx)
	} else {
		chain.uplink.Deliver = ss.rx.deliver
		if cfg.KeepSeries {
			chain.uplink.OnDrop = ss.rx.onDrop
		}
	}
	ss.snd.Transmit = send
	if ss.rep != nil {
		ss.snd.Transmit = func(p *rtp.Packet, size int) {
			ss.rep.cache.Store(p, s.Now())
			send(p, size)
		}
	}

	// RFC 3550 sender/receiver reports, as the paper's pipeline logs them:
	// the sender emits an SR once per second on the media path; the
	// receiver answers with an RR carrying loss, extended-highest, the
	// §A.8 interarrival jitter and the LSR/DLSR pair the sender turns into
	// an RTT sample.
	s.Every(time.Second, time.Second, func() {
		sr := &rtp.SenderReport{
			SSRC:        scfg.SSRC,
			NTPTime:     s.Now(),
			RTPTime:     uint32(uint64(s.Now()) * rtp.VideoClockRate / uint64(time.Second)),
			PacketCount: uint32(ss.snd.PacketsSent),
			OctetCount:  uint32(ss.snd.BytesSent),
		}
		if buf, err := sr.Marshal(); err == nil {
			// Control-plane send: the SR shares the media bearer (loss,
			// queueing, serialization) but stays out of the media
			// Sent/Lost/Overflows so res.PER remains media-only, matching
			// the paper's §4.1 PER of 0.06–0.07%.
			chain.uplink.SendControl(buf, len(buf))
		}
	})
	s.Every(1500*time.Millisecond, time.Second, func() {
		if buf := ss.rx.receiverReport(s.Now()); buf != nil {
			chain.downlink.Send(rtcpBuf(buf), len(buf))
		}
	})
	if plane := ss.cc.plane; plane != nil {
		s.Every(ss.cc.interval, ss.cc.interval, func() {
			if buf := plane.report(s.Now()); buf != nil {
				chain.downlink.Send(buf, len(buf))
			}
		})
	}
	chain.downlink.Deliver = ss.onDownlink

	// Target-rate sampling: ramp-up detection, optional series, and — with
	// faults armed — the outage tracker's recovery and post-outage queue
	// metrics. Everything fault-related is gated on faultsOn: sampling
	// QueueDelay advances the link's capacity process, so touching it here
	// would perturb the calibrated no-fault runs.
	if faultsOn {
		ss.out = newOutageTracker(cfg, chain, ss.dur)
	}
	s.Every(0, 100*time.Millisecond, func() {
		now := s.Now()
		t := ss.cc.ctrl.TargetBitrate(now)
		if cfg.KeepSeries {
			ss.targetPts = append(ss.targetPts, metrics.Point{T: now, V: t / 1e6})
		}
		if res.RampUpTo25 == 0 && t >= 24.75e6 {
			res.RampUpTo25 = now
		}
		if ss.out != nil {
			ss.out.sample(res, now, t)
		}
	})
	ss.snd.Start()
}

// onDownlink is the sender's feedback-path handler.
func (ss *session) onDownlink(meta any, size int, sentAt, at time.Duration) {
	switch m := meta.(type) {
	case kfRequest:
		ss.snd.ForceKeyframe()
	case nackBuf:
		ss.rep.onNack(m, at)
	case rtcpBuf:
		var rr rtp.ReceiverReport
		if err := rr.Unmarshal(m); err == nil && len(rr.Blocks) == 1 && rr.Blocks[0].LastSR != 0 {
			b := rr.Blocks[0]
			lsr := time.Duration(b.LastSR) * time.Second / 65536
			dlsr := time.Duration(b.DelaySinceLastSR) * time.Second / 65536
			if rtt := at - lsr - dlsr; rtt > 0 {
				ss.res.RTCPRTTms.Add(float64(rtt) / float64(time.Millisecond))
			}
		}
	case []byte:
		ss.cc.plane.deliver(m, at, ss.snd)
		ss.snd.Kick()
	}
}

// finishVideo closes the video pipeline at the horizon and folds its
// stages.
func (ss *session) finishVideo() {
	res, pl, dur := ss.res, ss.pl, ss.dur
	if ss.bond != nil {
		ss.bond.finish(res, dur)
	}
	ss.snd.Stop()
	pl.Stop()

	res.FPS = *pl.FPSDist(dur)
	res.PlaybackMs = *pl.LatencyDist()
	res.SSIM = *pl.SSIMDist()
	res.Stalls = pl.Stalls
	res.StallsPerMin = pl.StallsPerMinute(dur)
	res.KeyframeRequests = pl.KeyframeRequests
	for _, f := range pl.Frames {
		if f.Skipped {
			res.FramesSkipped++
		} else {
			res.FramesPlayed++
		}
	}
	ss.rx.fold(dur)
	if res.Config.KeepSeries {
		res.TargetSeries = metrics.NewTimeSeriesFromPoints(ss.targetPts)
	}
	if sc, ok := ss.cc.raw.(*scream.Controller); ok {
		res.ScreamLosses = sc.Losses
		res.ScreamLossesInBand = sc.LossesInBand
		res.ScreamLossesWindow = sc.LossesWindow
		res.ScreamDiscards = sc.QueueDiscards
	}
	if ss.out != nil {
		ss.out.fold(res)
	}
	if ss.rep != nil {
		ss.rep.fold(res, pl)
	}
}

// receiver is the media receiver behind every path: sender-report
// reception, RTCP reception statistics, goodput and one-way-delay
// accounting, the repair detector's view of arrivals, feedback recording
// and the hand-off to the player.
type receiver struct {
	res     *Result
	stateAt func(time.Duration) flight.State
	pl      *video.Player
	plane   feedbackPlane // nil for the static regime
	rep     *repairStage  // nil when repair is off
	stats   *rtp.ReceptionStats
	// goodput counts delivered bytes per arrival second (RunUntil
	// guarantees at ≤ dur): a slice, so the packet path pays an add, not a
	// hash.
	goodput   []int
	owdPts    []metrics.Point
	lastSRMid uint32
	lastSRAt  time.Duration
}

// deliver is a single-path run's uplink handler, and a bonded run's for
// sender reports.
func (r *receiver) deliver(meta any, size int, sentAt, at time.Duration) {
	switch m := meta.(type) {
	case []byte:
		// A sender report on the media path.
		var sr rtp.SenderReport
		if err := sr.Unmarshal(m); err == nil {
			r.lastSRMid = uint32(sr.NTPTime * 65536 / time.Second)
			r.lastSRAt = at
		}
	case *rtp.Packet:
		if r.isRTX(m) {
			r.onRTX(m, size, at)
			return
		}
		r.account(m, size, sentAt, at)
		r.pl.OnPacket(m, at)
		r.record(m, at)
	}
}

// isRTX reports whether p is an RFC 4588 retransmission.
func (r *receiver) isRTX(p *rtp.Packet) bool {
	return r.rep != nil && p.Header.PayloadType == r.rep.cfg.RtxPayloadType
}

// onRTX hands a retransmission's original to the player iff its loss is
// still open, reporting the original sequence number it healed. RTX stays
// invisible to the congestion-control feedback (no TWCC/CCFB recording):
// the budget already charged it to the target.
func (r *receiver) onRTX(p *rtp.Packet, size int, at time.Duration) (uint16, bool) {
	orig, osn, ok := r.rep.heal(p, at)
	if ok {
		r.addGoodput(at, size)
		r.pl.OnRepairedPacket(orig, at)
	}
	return osn, ok
}

// account books a first-copy media packet: delay, goodput, reception
// statistics and the repair detector.
func (r *receiver) account(p *rtp.Packet, size int, sentAt, at time.Duration) {
	ms := float64(at-sentAt) / float64(time.Millisecond)
	r.res.OWDms.Add(ms)
	r.res.OWDByAlt[BucketFor(r.stateAt(sentAt).Alt)].Add(ms)
	if r.res.Config.KeepSeries {
		r.owdPts = append(r.owdPts, metrics.Point{T: at, V: ms})
	}
	r.addGoodput(at, size)
	r.stats.Record(p.Header.SequenceNumber, p.Header.Timestamp, at)
	if r.rep != nil {
		r.rep.det.OnPacket(p.Header.SequenceNumber, at)
	}
}

// record feeds the congestion-control feedback plane.
func (r *receiver) record(p *rtp.Packet, at time.Duration) {
	if r.plane != nil {
		r.plane.record(&p.Header, at)
	}
}

func (r *receiver) addGoodput(at time.Duration, size int) {
	if sec := int(at / time.Second); sec >= 0 && sec < len(r.goodput) {
		r.goodput[sec] += size
	}
}

// onDrop logs radio-loss instants for the series view.
func (r *receiver) onDrop(_ any, _ int, sentAt time.Duration, _ link.DropReason) {
	if r.res.Config.KeepSeries {
		r.res.LossTimes = append(r.res.LossTimes, sentAt)
	}
}

// receiverReport samples the jitter and marshals the RR answering the last
// sender report (nil if it does not encode).
func (r *receiver) receiverReport(now time.Duration) []byte {
	block := r.stats.Block()
	if r.lastSRAt > 0 {
		block.LastSR = r.lastSRMid
		block.DelaySinceLastSR = uint32((now - r.lastSRAt) * 65536 / time.Second)
	}
	r.res.JitterMs.Add(float64(r.stats.Jitter()) / float64(time.Millisecond))
	buf, _ := (&rtp.ReceiverReport{SSRC: 1, Blocks: []rtp.ReportBlock{block}}).Marshal()
	return buf
}

// fold writes the per-second goodput and the optional series.
func (r *receiver) fold(dur time.Duration) {
	keep := r.res.Config.KeepSeries
	var gpPts []metrics.Point
	for sec := 0; sec < int(dur/time.Second); sec++ {
		mbps := float64(r.goodput[sec]*8) / 1e6
		r.res.Goodput.Add(mbps)
		if keep {
			gpPts = append(gpPts, metrics.Point{T: time.Duration(sec) * time.Second, V: mbps})
		}
	}
	if keep {
		r.res.OWDSeries = metrics.NewTimeSeriesFromPoints(r.owdPts)
		r.res.GoodputSeries = metrics.NewTimeSeriesFromPoints(gpPts)
	}
}
