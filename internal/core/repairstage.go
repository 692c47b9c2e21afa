package core

import (
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// repairStage is the NACK/RTX repair layer (internal/repair): the
// receiver's loss detector, the sender's retransmission cache and the
// repair budget. The package schedules nothing itself; this stage drives it
// from the run's clock and callbacks, and is nil when repair is off, so
// the disabled path leaves the calibrated runs untouched.
type repairStage struct {
	cfg    repair.Config
	det    *repair.Detector
	cache  *repair.Cache
	budget *repair.Budget
	rtxSeq uint16
	res    *Result
	ctrl   cc.Controller
	media  video.SenderConfig
	uplink *link.Link
}

// newRepairStage builds the stage and registers the receiver's NACK tick.
func newRepairStage(s *sim.Simulator, cfg Config, res *Result, a *ccAdapter, media video.SenderConfig, chain *radioChain) *repairStage {
	if !cfg.Repair.Enabled {
		return nil
	}
	rcfg := cfg.Repair.WithDefaults()
	r := &repairStage{cfg: rcfg, det: repair.NewDetector(rcfg), cache: repair.NewCache(rcfg), budget: repair.NewBudget(rcfg),
		res: res, ctrl: a.ctrl, media: media, uplink: chain.uplink}
	r.det.SetNackRTTHist(res.Telemetry.LogHistogram(TelemetryNackRTT))
	r.det.SetTracer(res.Trace)
	// Account repair spend against the media target so media plus RTX
	// together honor the congested rate (cc.RepairAware).
	if ra, ok := a.raw.(cc.RepairAware); ok {
		ra.SetRepairSpend(r.budget.SpendRate)
	}
	// Receiver-side NACK scheduler: losses past the reorder tolerance whose
	// (backed-off) retry timer has expired are batched into one RFC 4585
	// Generic NACK on the feedback path.
	s.Every(rcfg.TickInterval, rcfg.TickInterval, func() {
		seqs := r.det.Tick(s.Now())
		if len(seqs) == 0 {
			return
		}
		n := &rtp.NACK{SenderSSRC: 1, MediaSSRC: media.SSRC, Pairs: rtp.NackPairs(seqs)}
		buf, err := n.Marshal()
		if err != nil {
			return
		}
		res.NacksSent++
		res.Trace.Emit(obs.Event{T: s.Now(), Kind: obs.KindNack, Dir: obs.DirDown,
			Flags: obs.FlagCtrl, Seq: int64(seqs[0]), Aux: int64(len(seqs))})
		chain.downlink.Send(nackBuf(buf), len(buf))
	})
	return r
}

// onNack answers a NACK at the sender: every still-cached packet the
// budget admits goes back up the primary uplink as an RFC 4588
// retransmission.
func (r *repairStage) onNack(buf []byte, at time.Duration) {
	var n rtp.NACK
	if err := n.Unmarshal(buf); err != nil {
		return
	}
	for _, seq := range n.Seqs() {
		orig := r.cache.Lookup(seq, at)
		if orig == nil {
			continue // evicted, aged out, or resent to the cap
		}
		r.rtxSeq++
		rtxPkt := rtp.WrapRTX(orig, r.cfg.RtxSSRC, r.cfg.RtxPayloadType, r.rtxSeq)
		size := rtxPkt.MarshalSize()
		if !r.budget.Allow(at, size, r.ctrl.TargetBitrate(at)) {
			continue // budget empty: degrade to the PLI path
		}
		r.res.RtxBytes += size
		r.res.Trace.Emit(obs.Event{T: at, Kind: obs.KindRTX, Dir: obs.DirUp,
			Flags: obs.FlagRTX, Seq: int64(seq), Aux: int64(size)})
		r.uplink.SendRTX(rtxPkt, size)
	}
}

// heal unwraps a retransmission at the receiver and reports the original
// packet and sequence number iff its loss is still open.
func (r *repairStage) heal(p *rtp.Packet, at time.Duration) (*rtp.Packet, uint16, bool) {
	orig, osn, err := rtp.UnwrapRTX(p, r.media.SSRC, r.media.PayloadType)
	if err != nil || !r.det.OnRepair(osn, at) {
		return nil, 0, false
	}
	return orig, osn, true
}

// fold writes the repair results and the uplink's RTX-plane counters.
func (r *repairStage) fold(res *Result, pl *video.Player) {
	res.PacketsRepaired = pl.PacketsRepaired
	res.FramesRepaired = pl.FramesRepaired
	res.RepairLate = r.det.Late
	res.RepairAbandoned = r.det.Abandoned
	res.RepairDenied = r.budget.Denied
	res.RepairCacheMisses = r.cache.Misses
	res.RepairBudgetAccrued = r.budget.Accrued()
	res.RtxSent = r.uplink.RtxSent
	res.RtxDelivered = r.uplink.RtxDelivered
	res.RtxLost = r.uplink.RtxLost
	res.RtxStaleDrops = r.uplink.RtxStaleDrops
	res.RtxOverflows = r.uplink.RtxOverflows
}
