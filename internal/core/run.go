package core

import (
	"math/rand"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// Run executes one measurement run and returns its aggregated result.
func Run(cfg Config) *Result {
	runsExecuted.Add(1)
	return newSession(cfg).run()
}

// session is one run's assembled pipeline. Each stage owns its state and
// folds its own Result fields when the run ends; no stage is reachable
// from the Result, so a finished run retains only its measurements. The
// video stages are nil on the ping workload, and the optional ones (rep,
// bond, out) when their layer is off.
type session struct {
	s   *sim.Simulator
	res *Result
	dur time.Duration
	// uplinks are the media uplinks, primary first; a bonded run adds its
	// secondary chain's.
	uplinks   []*link.Link
	cc        *ccAdapter
	snd       *video.Sender
	pl        *video.Player
	rx        *receiver
	rep       *repairStage
	bond      *bondPaths
	out       *outageTracker
	targetPts []metrics.Point
}

// newSession builds the pipeline for cfg. The order of every s.Every and
// s.At registration here and in the stage constructors is part of the
// output: the event heap breaks same-instant ties by scheduling sequence.
func newSession(cfg Config) *session {
	s := sim.New(cfg.Seed)
	prof, stateAt := setupMobility(cfg, s)
	dur := cfg.Duration
	if dur == 0 {
		dur = prof.Duration()
	}
	res := &Result{Config: cfg, Duration: dur}
	// Live-telemetry histograms (internal/obs). These are deliberately a
	// separate registry from MetricsRegistry(): the regression gate treats a
	// metric present on only one side as drift, so folding new series into
	// the campaign surface would invalidate every checked-in baseline. All
	// four are created up front (the primary radio chain adds the handover
	// one) so a /metrics scrape always exposes the series, even before the
	// first observation.
	res.Telemetry = obs.NewRegistry()
	res.Telemetry.LogHistogram(TelemetryFrameDelay)
	res.Telemetry.LogHistogram(TelemetryNackRTT)
	res.Telemetry.LogHistogram(TelemetryQueueDelay)
	if cfg.Trace {
		res.Trace = obs.New(cfg.TraceCap)
	}
	primary := newRadioChain(s, cfg, res, stateAt, "cell", "uplink", obs.DirUp, fault.PathPrimary)
	ss := &session{s: s, res: res, dur: dur, uplinks: []*link.Link{primary.uplink}}
	if cfg.Workload == WorkloadPing {
		wirePing(s, res, primary, stateAt)
	} else {
		ss.wireVideo(cfg, primary, stateAt)
	}
	return ss
}

// run drives the simulation to the horizon and folds the stages.
func (ss *session) run() *Result {
	ss.s.RunUntil(ss.dur)
	res := ss.res
	if ss.snd != nil {
		ss.finishVideo()
	}
	// The radio-level counters sum every media uplink, so on bonded runs
	// sent/delivered/lost and PER describe all the copies on the air
	// (duplicate ≈ 2× the unique stream). The unique view is in BondPaths:
	// per-path Delivered − Suppressed. Control traffic stays on the primary
	// chain, so the Ctrl counters are primary-only.
	for _, l := range ss.uplinks {
		res.PacketsSent += l.Sent
		res.PacketsDelivered += l.Delivered
		res.PacketsLost += l.Lost
		res.Overflows += l.Overflows
		res.AQMDrops += l.AQMDrops
	}
	res.CtrlPacketsSent = ss.uplinks[0].CtrlSent
	res.CtrlPacketsDelivered = ss.uplinks[0].CtrlDelivered
	res.CtrlPacketsLost = ss.uplinks[0].CtrlLost
	if res.PacketsSent > 0 {
		res.PER = float64(res.PacketsLost) / float64(res.PacketsSent)
	}
	return res
}

// setupMobility builds the flight profile and the (possibly origin-shifted)
// state lookup. It consumes exactly the "ground" stream for ground runs and
// nothing for aerial ones; RunFleet's attachment precompute relies on that
// to replay a UAV's mobility byte-identically outside a full run.
func setupMobility(cfg Config, s *sim.Simulator) (flight.Profile, func(time.Duration) flight.State) {
	var prof flight.Profile
	if cfg.Air {
		prof = flight.StandardFlight()
	} else {
		prof = flight.GroundProfile(6*time.Minute, s.Stream("ground"))
	}
	stateAt := func(at time.Duration) flight.State { return prof.At(at) }
	if cfg.OffsetX != 0 || cfg.OffsetY != 0 {
		stateAt = func(at time.Duration) flight.State {
			st := prof.At(at)
			st.X += cfg.OffsetX
			st.Y += cfg.OffsetY
			return st
		}
	}
	return prof, stateAt
}

// setupRadio builds the deployment (unless cfg.Cells injects a shared one),
// signal model and handover machine, drawing only from cellRng. RunFleet's
// attachment precompute calls this with an identically derived stream so
// its offline handover replay consumes exactly the randomness the live run
// does — the basis of the fleet's share determinism.
func setupRadio(cfg Config, cellRng *rand.Rand) (*cell.Machine, cell.HandoverConfig) {
	bss := cfg.Cells
	if bss == nil {
		bss = cell.Deployment(cfg.Env, cfg.Op, cellRng)
	}
	model := cell.NewSignalModel(cfg.Env, bss, cell.DefaultSignalConfigFor(cfg.Env), cellRng)
	hoCfg := cell.DefaultHandoverConfigFor(cfg.Env)
	hoCfg.DAPS = cfg.DAPS
	if cfg.Faults.RLF {
		hoCfg.RLF = cell.DefaultRLFConfig()
	}
	return cell.NewMachine(model, hoCfg, cfg.Air, cellRng), hoCfg
}

// radioChain is one operator's access path: the handover machine with its
// measurement task, and the media uplink. Only the primary chain carries
// the feedback downlink.
type radioChain struct {
	machine          *cell.Machine
	uplink, downlink *link.Link
}

// newRadioChain builds the chain for cfg.Op over cfg.Cells (or a private
// deployment). The primary chain runs on the configured operator; a bonded
// run adds the secondary over the competing one. Each chain draws from its
// own named streams, so the run stays a pure function of (Config, Seed),
// and traces under its own direction. Scripted faults scope by path: @p1
// windows silence only the primary, @p2 only the secondary, and unscoped
// windows (the vehicle sitting in a coverage hole) both. The primary chain
// also logs handovers, feeds the handover and queue-delay telemetry and
// gets the feedback downlink.
func newRadioChain(s *sim.Simulator, cfg Config, res *Result, stateAt func(time.Duration) flight.State,
	cellStream, uplinkStream string, dir obs.Dir, path int) *radioChain {
	primary := path == fault.PathPrimary
	machine, hoCfg := setupRadio(cfg, s.Stream(cellStream))
	if primary {
		machine.SetInterruptionHist(res.Telemetry.LogHistogram(TelemetryHandoverInterruption))
	}
	machine.SetTracer(res.Trace, dir)
	s.Every(0, hoCfg.MeasurementInterval, func() {
		if ev := machine.Step(s.Now(), stateAt(s.Now())); ev != nil && primary {
			res.Handovers = append(res.Handovers, *ev)
		}
	})
	arm := func(l *link.Link, dir obs.Dir, fdir fault.Direction) *link.Link {
		l.SetTracer(res.Trace, dir)
		if cfg.Faults.Enabled() {
			l.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fdir, path), !cfg.Faults.FreezeQueue, cfg.Faults.StaleAfter)
		}
		return l
	}
	prof := link.ProfileFor(cfg.Env, cfg.Op)
	prof.AQM = cfg.AQM
	c := &radioChain{machine: machine, uplink: arm(link.New(s, prof, machine, stateAt, s.Stream(uplinkStream)), dir, fault.Uplink)}
	if cfg.CapacityShare != nil {
		// The fleet scheduler's share scales the media uplink only: the
		// feedback downlink is tiny control traffic on an overprovisioned
		// bearer, so contention on it is negligible by design.
		c.uplink.SetCapacityShare(cfg.CapacityShare)
	}
	if primary {
		c.uplink.SetQueueDelayHist(res.Telemetry.LogHistogram(TelemetryQueueDelay))
		c.downlink = arm(link.New(s, link.FeedbackProfile(), machine, stateAt, s.Stream("downlink")), obs.DirDown, fault.Downlink)
	}
	return c
}

// rtcpBuf marks receiver-report bytes on the downlink so they are not
// mistaken for congestion-control feedback.
type rtcpBuf []byte

// kfRequest is the receiver's PLI-style keyframe request on the downlink.
type kfRequest struct{}

// nackBuf marks RFC 4585 Generic NACK bytes on the downlink so they are
// not mistaken for congestion-control feedback.
type nackBuf []byte

// pingProbe is the meta carried by Fig. 13 probe packets.
type pingProbe struct {
	sentAt time.Duration
	alt    float64
}

// wirePing wires the no-cross-traffic probe workload of Fig. 13: small
// probes up the access link, echoed back over the downlink.
func wirePing(s *sim.Simulator, res *Result, c *radioChain, stateAt func(time.Duration) flight.State) {
	const probeSize = 125 // ICMP-sized
	c.uplink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		c.downlink.Send(meta, size) // echo
	}
	c.downlink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		probe := meta.(pingProbe)
		ms := float64(at-probe.sentAt) / float64(time.Millisecond)
		res.RTTms.Add(ms)
		res.RTTByAlt[BucketFor(probe.alt)].Add(ms)
	}
	s.Every(0, 50*time.Millisecond, func() {
		c.uplink.Send(pingProbe{sentAt: s.Now(), alt: stateAt(s.Now()).Alt}, probeSize)
	})
}
