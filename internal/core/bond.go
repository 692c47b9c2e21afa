package core

import (
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

// bondTick is the bond health monitor's (and reorder buffer's) cadence.
const bondTick = 50 * time.Millisecond

// bondPaths is a bonded run's media path: the bond manager routing over
// every uplink (path 0 is the primary chain's), and on the receive side the
// deduplication, the reorder buffer for striping policies and the
// per-path suppressed-copy counts.
type bondPaths struct {
	s          *sim.Simulator
	mgr        *bond.Manager
	uplinks    [bond.NumPaths]*link.Link
	rx         *receiver
	seen       *multipathDedup
	reorder    *bond.Reorder
	suppressed [bond.NumPaths]int64
}

// setupBond builds the second radio chain over the competing operator and
// the bond manager driving both, or returns nil when the run is not
// bonded.
func setupBond(s *sim.Simulator, cfg Config, res *Result, uplink *link.Link, stateAt func(time.Duration) flight.State) *bondPaths {
	if !cfg.Bond.Enabled() {
		return nil
	}
	// The secondary chain draws its own deployment for the other operator;
	// the fleet's shared cells and capacity share belong to the primary.
	c2 := cfg
	c2.Op, c2.Cells, c2.CapacityShare = cell.P2, nil, nil
	if cfg.Op == cell.P2 {
		c2.Op = cell.P1
	}
	second := newRadioChain(s, c2, res, stateAt, "cell2", "uplink2", obs.DirUp2, fault.PathSecondary)
	bp := &bondPaths{s: s, mgr: bond.NewManager(cfg.Bond), uplinks: [bond.NumPaths]*link.Link{uplink, second.uplink}}
	for i, l := range bp.uplinks {
		bp.mgr.SetOutageProbe(i, l.Interrupted)
	}
	bp.mgr.OnEvent = func(ev bond.Event) {
		e := obs.Event{T: ev.At, Seq: int64(ev.Path)}
		switch ev.Kind {
		case bond.EventPathDown:
			res.BondPathDownEvents++
			e.Kind, e.Aux = obs.KindPathDown, int64(ev.Cause)
		case bond.EventPathUp:
			res.BondPathUpEvents++
			e.Kind, e.V = obs.KindPathUp, float64(ev.DownFor)/float64(time.Millisecond)
		case bond.EventFailover:
			e.Kind, e.Seq, e.Aux = obs.KindFailover, int64(ev.From), int64(ev.To)
		default:
			return
		}
		res.Trace.Emit(e)
	}
	s.Every(bondTick, bondTick, func() {
		bp.mgr.Tick(s.Now())
		if bp.reorder != nil {
			bp.reorder.Tick(s.Now())
		}
	})
	return bp
}

// send routes one media packet onto the paths the scheduler picks.
func (b *bondPaths) send(p *rtp.Packet, size int) {
	set := b.mgr.Route(b.s.Now(), size)
	for i, l := range b.uplinks {
		if set.Has(i) {
			l.Send(p, size)
		}
	}
}

// attach wires the receive side onto every path. Deduplication is always
// on: the duplicate policy sends full copies, and every other policy still
// duplicates probe packets onto idle paths. Striping policies interleave
// paths of different latency, so the bounded reorder buffer re-serializes
// for the player; the duplicate policy plays the first copy and needs none.
func (b *bondPaths) attach(rx *receiver) {
	b.rx = rx
	b.seen = newMultipathDedup()
	if b.mgr.Policy() != bond.PolicyDuplicate {
		bcfg := b.mgr.Config()
		b.reorder = bond.NewReorder(bcfg.ReorderDeadline, bcfg.ReorderCap, func(meta interface{}, now time.Duration) {
			rx.pl.OnPacket(meta.(*rtp.Packet), now)
		})
		b.reorder.OnLate = func(ext int64, now time.Duration) {
			rx.res.Trace.Emit(obs.Event{T: now, Kind: obs.KindReorderDrop, Seq: ext})
		}
	}
	for i, l := range b.uplinks {
		l.Deliver = func(meta any, size int, sentAt, at time.Duration) { b.deliver(i, meta, size, sentAt, at) }
		l.OnDrop = func(meta any, size int, sentAt time.Duration, reason link.DropReason) {
			if i == 0 {
				rx.onDrop(meta, size, sentAt, reason)
			}
			b.mgr.ObserveLoss(i)
		}
	}
}

// deliver is path i's uplink handler. Sender reports and retransmissions
// ride the primary uplink only and go straight to the receiver; media
// feeds the path's health estimate before deduplication, so probe
// duplicates keep an idle path's estimate warm.
func (b *bondPaths) deliver(i int, meta any, size int, sentAt, at time.Duration) {
	p, ok := meta.(*rtp.Packet)
	if !ok {
		b.rx.deliver(meta, size, sentAt, at)
		return
	}
	if b.rx.isRTX(p) {
		if osn, healed := b.rx.onRTX(p, size, at); healed {
			b.seen.Mark(osn)
		}
		return
	}
	b.mgr.ObserveDelivery(i, at-sentAt, size)
	ext, dup := b.seen.DuplicateExt(p.Header.SequenceNumber)
	if dup {
		b.suppressed[i]++
		return
	}
	b.rx.account(p, size, sentAt, at)
	if b.reorder != nil {
		// The buffer releases to the player in extended-sequence order
		// under its deadline; feedback and delay metrics stay at
		// first-arrival time.
		b.reorder.Insert(ext, p, at)
	} else {
		b.rx.pl.OnPacket(p, at)
	}
	b.rx.record(p, at)
}

// finish hands the player whatever the reorder buffer still holds, before
// the player's accounting closes, and writes the bonding results.
// MultipathDuplicates is the derived view: total copies suppressed at the
// receiver.
func (b *bondPaths) finish(res *Result, dur time.Duration) {
	res.BondPolicy = b.mgr.Policy().String()
	res.BondSwitches = b.mgr.Switches
	if b.reorder != nil {
		b.reorder.Flush(dur)
		res.BondReorderLate = int(b.reorder.Late)
		res.BondReorderForced = int(b.reorder.DeadlineReleases + b.reorder.CapReleases)
	}
	for i := range b.uplinks {
		st := b.mgr.Stats(i, dur)
		res.BondPaths = append(res.BondPaths, BondPathStats{
			Sent:       st.Sent,
			Delivered:  st.Delivered,
			Lost:       st.Lost,
			Suppressed: b.suppressed[i],
			DownMs:     float64(st.DownFor) / float64(time.Millisecond),
			Up:         st.Up,
		})
		res.MultipathDuplicates += int(b.suppressed[i])
	}
}
