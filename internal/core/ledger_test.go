package core

import (
	"testing"

	"rpivideo/internal/bond"
	"rpivideo/internal/link"
)

// runLedgered builds the pipeline for cfg, runs it to the horizon and
// checks the conservation ledger through its stages.
func runLedgered(t *testing.T, cfg Config) *Result {
	t.Helper()
	ss := newSession(cfg)
	r := ss.run()
	checkLedger(t, ss, r)
	return r
}

// mediaDrops is every media packet a link dropped: radio loss, buffer
// overflow, CoDel head drop and the stale flush at re-establishment.
func mediaDrops(l *link.Link) int { return l.Lost + l.Overflows + l.AQMDrops + l.StaleDrops }

// checkLedger asserts the run's exact conservation identities at the
// horizon:
//
//   - every uplink, per plane: each offered packet is delivered, lost,
//     overflowed, AQM-dropped, stale-flushed, still queued, or in flight;
//   - the Result's radio counters are the sums over the uplinks;
//   - the bond manager's per-path accounting matches its link, and every
//     delivered copy is either accounted at the receiver or suppressed as a
//     duplicate (a single path suppresses none);
//   - repair heals no more packets than retransmissions arrived and spends
//     no more bytes than the budget accrued.
func checkLedger(t *testing.T, ss *session, r *Result) {
	t.Helper()
	var sent, delivered, lost, overflows, aqm int
	for i, l := range ss.uplinks {
		qm, qc := l.QueuedPackets()
		fm, fc := l.InFlightPackets()
		if got := l.Delivered + mediaDrops(l) + qm + fm; got != l.Sent {
			t.Errorf("uplink %d media: sent %d != delivered %d + lost %d + overflows %d + aqm %d + stale %d + queued %d + in-flight %d",
				i, l.Sent, l.Delivered, l.Lost, l.Overflows, l.AQMDrops, l.StaleDrops, qm, fm)
		}
		if got := l.CtrlDelivered + l.CtrlLost + qc + fc; got != l.CtrlSent {
			t.Errorf("uplink %d control: sent %d != delivered %d + lost %d + queued %d + in-flight %d",
				i, l.CtrlSent, l.CtrlDelivered, l.CtrlLost, qc, fc)
		}
		rq, rf := l.RtxQueued(), l.RtxInFlight()
		if got := l.RtxDelivered + l.RtxLost + l.RtxOverflows + l.RtxAQMDrops + l.RtxStaleDrops + rq + rf; got != l.RtxSent {
			t.Errorf("uplink %d rtx: sent %d != delivered %d + lost %d + overflows %d + aqm %d + stale %d + queued %d + in-flight %d",
				i, l.RtxSent, l.RtxDelivered, l.RtxLost, l.RtxOverflows, l.RtxAQMDrops, l.RtxStaleDrops, rq, rf)
		}
		sent, delivered, lost, overflows, aqm = sent+l.Sent, delivered+l.Delivered, lost+l.Lost, overflows+l.Overflows, aqm+l.AQMDrops
	}
	if got, want := [5]int{r.PacketsSent, r.PacketsDelivered, r.PacketsLost, r.Overflows, r.AQMDrops}, [5]int{sent, delivered, lost, overflows, aqm}; got != want {
		t.Errorf("result sent/delivered/lost/overflows/aqm = %v, uplinks sum to %v", got, want)
	}
	if ss.snd == nil {
		return // ping: no video stages
	}
	primary := ss.uplinks[0]
	if r.Config.KeepSeries && len(r.LossTimes) != mediaDrops(primary) {
		t.Errorf("loss times %d != primary media drops %d", len(r.LossTimes), mediaDrops(primary))
	}
	accounted := primary.Delivered
	if b := ss.bond; b != nil {
		accounted = 0
		var suppressed int64
		for i, l := range ss.uplinks {
			st := b.mgr.Stats(i, ss.dur)
			if st.Sent != int64(l.Sent) || st.Delivered != int64(l.Delivered) || st.Lost != int64(mediaDrops(l)) {
				t.Errorf("bond path %d sent/delivered/lost = %d/%d/%d, link %d/%d/%d",
					i, st.Sent, st.Delivered, st.Lost, l.Sent, l.Delivered, mediaDrops(l))
			}
			if r.BondPaths[i].Suppressed > st.Delivered {
				t.Errorf("bond path %d suppressed %d of %d delivered", i, r.BondPaths[i].Suppressed, st.Delivered)
			}
			accounted += l.Delivered - int(r.BondPaths[i].Suppressed)
			suppressed += r.BondPaths[i].Suppressed
		}
		if int(suppressed) != r.MultipathDuplicates {
			t.Errorf("MultipathDuplicates = %d, per-path Suppressed sums to %d", r.MultipathDuplicates, suppressed)
		}
	} else if ss.snd.PacketsSent != primary.Sent {
		t.Errorf("sender sent %d media packets, uplink took %d", ss.snd.PacketsSent, primary.Sent)
	}
	if r.OWDms.N() != accounted {
		t.Errorf("receiver accounted %d first copies, paths delivered %d net of duplicates", r.OWDms.N(), accounted)
	}
	if ss.rep != nil {
		if r.RtxSent != primary.RtxSent || r.RtxDelivered != primary.RtxDelivered {
			t.Errorf("result rtx sent/delivered %d/%d, uplink %d/%d", r.RtxSent, r.RtxDelivered, primary.RtxSent, primary.RtxDelivered)
		}
		if r.PacketsRepaired > r.RtxDelivered {
			t.Errorf("repaired %d packets from %d delivered retransmissions", r.PacketsRepaired, r.RtxDelivered)
		}
		if float64(r.RtxBytes) > r.RepairBudgetAccrued {
			t.Errorf("rtx bytes %d exceed the accrued budget %.0f", r.RtxBytes, r.RepairBudgetAccrued)
		}
	}
}

// TestConservationLedger balances the ledger on the configurations the
// wiring matrix leaves out: the failover policy through a primary
// blackout, repair under SCReAM and under GCC with CoDel, and the full
// fault stack on each regime.
func TestConservationLedger(t *testing.T) {
	gccAQM := repairedConfig(CCGCC)
	gccAQM.AQM = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bond-failover", bondedConfig(bond.PolicyFailover)},
		{"repair-scream", repairedConfig(CCSCReAM)},
		{"repair-gcc-aqm", gccAQM},
		{"faults-static", faultedConfig(CCStatic)},
		{"faults-gcc", faultedConfig(CCGCC)},
		{"faults-scream", faultedConfig(CCSCReAM)},
	} {
		t.Run(tc.name, func(t *testing.T) { runLedgered(t, tc.cfg) })
	}
}
