package core

import (
	"sort"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
)

// outageTracker follows a faulted run's outage episodes — scripted windows
// and the radio-link failures the primary machine declares — and measures
// the target rate's recovery and the uplink queue after each. It exists
// only when faults are armed.
type outageTracker struct {
	chain      *radioChain
	dur        time.Duration
	episodes   []fault.Episode
	scripted   []fault.Episode
	tracks     []*recoveryTrack
	scriptIdx  int
	rlfSeen    int
	lastTarget float64
}

// recoveryTrack is one episode awaiting the target rate's recovery.
type recoveryTrack struct {
	ep        fault.Episode
	preRate   float64
	recovered bool
}

func newOutageTracker(cfg Config, chain *radioChain, dur time.Duration) *outageTracker {
	o := &outageTracker{chain: chain, dur: dur}
	for _, w := range cfg.Faults.Windows {
		if w.Start >= dur || w.Loss || w.Path == fault.PathSecondary {
			// Loss fades erase packets without interrupting service, so
			// they are not outage episodes and need no recovery tracking.
			// Secondary-path windows stay off the episode timeline too: it
			// is primary-centric, and a bonded run's whole point is that
			// the stream does not treat a standby outage as its own.
			continue
		}
		o.scripted = append(o.scripted, fault.Episode{Start: w.Start, End: min(w.End(), dur), Kind: fault.KindScripted, Dir: w.Dir})
	}
	o.episodes = append(o.episodes, o.scripted...)
	return o
}

// collectRLFs folds newly declared radio-link failures into the episode
// timeline (and, while the run is live, into the recovery tracking).
func (o *outageTracker) collectRLFs(track bool) {
	evs := o.chain.machine.RLFEvents()
	for ; o.rlfSeen < len(evs); o.rlfSeen++ {
		ev := evs[o.rlfSeen]
		kind := fault.KindRLF
		if ev.Cause == cell.RLFHandoverFailure {
			kind = fault.KindHandoverFailure
		}
		ep := fault.Episode{Start: ev.At, End: min(ev.At+ev.Outage, o.dur), Kind: kind}
		o.episodes = append(o.episodes, ep)
		if track {
			o.tracks = append(o.tracks, &recoveryTrack{ep: ep, preRate: o.lastTarget})
		}
	}
}

// sample runs on every target-rate sample t at now.
func (o *outageTracker) sample(res *Result, now time.Duration, t float64) {
	if o.lastTarget == 0 {
		o.lastTarget = t
	}
	o.collectRLFs(true)
	for o.scriptIdx < len(o.scripted) && now >= o.scripted[o.scriptIdx].Start {
		o.tracks = append(o.tracks, &recoveryTrack{ep: o.scripted[o.scriptIdx], preRate: o.lastTarget})
		o.scriptIdx++
	}
	var queueMs float64
	queueSampled := false
	for _, tr := range o.tracks {
		if now < tr.ep.End {
			continue
		}
		if now-tr.ep.End <= 5*time.Second {
			if !queueSampled {
				queueSampled = true
				// The advancing variant: this probe is part of the simulated
				// system, and sampling here has always stepped the capacity
				// process — switching to the pure QueueDelay would change
				// every fault campaign's realization (and golden trace).
				queueMs = float64(o.chain.uplink.SampleQueueDelay()) / float64(time.Millisecond)
			}
			if queueMs > res.PostOutageQueueMs {
				res.PostOutageQueueMs = queueMs
			}
		}
		if !tr.recovered && t >= 0.8*tr.preRate {
			tr.recovered = true
			res.RecoveryMs.Add(float64(now-tr.ep.End) / float64(time.Millisecond))
		}
	}
	o.lastTarget = t
}

// fold writes the episode timeline, the RLF tallies and the media flushed
// at re-establishment.
func (o *outageTracker) fold(res *Result) {
	o.collectRLFs(false)
	sort.Slice(o.episodes, func(i, j int) bool {
		if o.episodes[i].Start != o.episodes[j].Start {
			return o.episodes[i].Start < o.episodes[j].Start
		}
		return o.episodes[i].Kind < o.episodes[j].Kind
	})
	res.FaultEpisodes = o.episodes
	res.Outages = len(o.episodes)
	for _, ep := range o.episodes {
		res.OutageTotal += ep.Length()
		res.OutageMs.Add(float64(ep.Length()) / float64(time.Millisecond))
	}
	for _, ev := range o.chain.machine.RLFEvents() {
		if ev.Cause == cell.RLFHandoverFailure {
			res.HandoverFailures++
		} else {
			res.RLFs++
		}
	}
	res.StaleDrops = o.chain.uplink.StaleDrops
}
