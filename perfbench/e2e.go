package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rpivideo/internal/core"
	"rpivideo/internal/obs"
)

// runTimeout abandons a wedged campaign run; it counts as a failed run.
const runTimeout = 60 * time.Second

// repetition is one timed execution of a workload's campaign or fleet.
type repetition struct {
	results []*core.Result    // campaign workloads, in run order
	fleet   *core.FleetResult // fleet workloads
	errs    []error
	// runWalls holds each run's host time (campaigns) or the fleet's.
	runWalls []time.Duration
	wall     time.Duration
	// allocBytes and allocs are the heap bytes and objects allocated while
	// the repetition ran.
	allocBytes, allocs uint64
}

// runConfig is the workload's template with the workload seed and tracing
// applied.
func (w workload) runConfig(seed int64, trace bool) core.Config {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.Trace = trace
	return cfg
}

// run executes one repetition. Campaign runs go through
// core.RunCampaignWithOptions on one worker, whose progress callback gives
// each run's host time; a fleet goes through core.RunFleet.
func (w workload) run(seed int64, trace bool) repetition { return w.runWith(seed, trace, nil) }

// runWith is run with a status sink receiving each completed run's
// registry.
func (w workload) runWith(seed int64, trace bool, sink obs.StatusSink) repetition {
	var rep repetition
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if w.fleet > 0 {
		rep.fleet, rep.errs = core.RunFleet(core.FleetConfig{
			Config:     w.runConfig(seed, trace),
			Size:       w.fleet,
			Sched:      w.sched,
			Workers:    1,
			Events:     trace,
			StatusSink: sink,
		})
		rep.wall = time.Since(start)
		rep.runWalls = []time.Duration{rep.wall}
	} else {
		var last time.Duration
		rep.results, rep.errs = core.RunCampaignWithOptions(w.runConfig(seed, trace), w.runs, core.CampaignOptions{
			Workers:    1,
			RunTimeout: runTimeout,
			StatusSink: sink,
			Progress: func(p core.CampaignProgress) {
				rep.runWalls = append(rep.runWalls, p.Wall-last)
				last = p.Wall
			},
		})
		rep.wall = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	rep.allocBytes = after.TotalAlloc - before.TotalAlloc
	rep.allocs = after.Mallocs - before.Mallocs
	return rep
}

// attempted is the number of runs (or fleets) the repetition tried.
func (rep repetition) attempted() int {
	if rep.fleet != nil || rep.results == nil {
		return 1
	}
	return len(rep.results)
}

// check verifies every output of the repetition: no run failed, each run's
// registry digest equals the reference digest for its index (recorded from
// the first repetition when ref is empty), and the conservation
// inequalities hold. It returns the per-run digests and the failures, one
// message per failed run.
func (rep repetition) check(ref []string, traced bool) ([]string, []string) {
	var failures []string
	if rep.fleet != nil || rep.results == nil {
		for _, err := range rep.errs {
			if err != nil {
				return nil, []string{fmt.Sprintf("fleet: %v", err)}
			}
		}
		reg := rep.fleet.MetricsRegistry()
		if traced {
			// The cell event count is the trace's own size; it is the one
			// key a traced fleet export adds, so it is zeroed before the
			// comparison with the untraced export.
			reg = reg.Clone()
			reg.Add("fleet_cell_events", -reg.Counter("fleet_cell_events"))
		}
		d, msg := checkRegistry(reg, nil, ref, 0)
		if msg != "" {
			failures = append(failures, "fleet: "+msg)
		}
		return []string{d}, failures
	}
	digests := make([]string, len(rep.results))
	for i, r := range rep.results {
		if rep.errs[i] != nil {
			failures = append(failures, fmt.Sprintf("run %d: %v", i, rep.errs[i]))
			continue
		}
		var led *repairLedger
		if r.Trace != nil {
			led = ledgerOf(r.Trace)
		}
		d, msg := checkRegistry(r.MetricsRegistry(), led, ref, i)
		digests[i] = d
		if msg != "" {
			failures = append(failures, fmt.Sprintf("run %d: %s", i, msg))
		}
	}
	return digests, failures
}

// checkRegistry digests one registry, compares it with ref[i] when ref has
// that entry, and checks conservation.
func checkRegistry(reg *obs.Registry, led *repairLedger, ref []string, i int) (string, string) {
	d, err := digest(reg)
	if err != nil {
		return "", err.Error()
	}
	if i < len(ref) && ref[i] != "" && ref[i] != d {
		return d, fmt.Sprintf("registry digest %.12s differs from reference %.12s", d, ref[i])
	}
	if err := conservation(reg, led); err != nil {
		return d, err.Error()
	}
	return d, ""
}

// retainedHeap forces a collection while the repetition's results are still
// referenced and returns the live heap in bytes.
func (rep *repetition) retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(rep.results)
	runtime.KeepAlive(rep.fleet)
	return ms.HeapAlloc
}

// e2eStats collects the untraced measurements of one benchmark invocation.
type e2eStats struct {
	setups     []float64 // seconds per set-up
	rates      []float64 // sim-s per host-s, one per repetition
	runWalls   []float64 // ms, one per run
	allocBytes []float64 // per sim-s, one per repetition
	allocs     []float64 // per sim-s, one per repetition
	retained   []float64 // MB, one per repetition
	attempted  int
	failures   []string
	digest     string
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// measureE2E sets the workload up several times, then repeats its campaign
// until the timed repetitions have covered the requested host time (at
// least minReps repetitions), checking every repetition's outputs.
func measureE2E(w workload, seed int64, seconds time.Duration) *e2eStats {
	const minReps = 3
	st := &e2eStats{}
	var ref []string
	for i := 0; i < setups; i++ {
		secs, d, msg := setUp(w, seed)
		st.setups = append(st.setups, secs)
		st.attempted++
		if msg != "" {
			st.failures = append(st.failures, "warm-up: "+msg)
		}
		if ref == nil {
			ref = []string{d}
		} else if d != ref[0] {
			st.failures = append(st.failures, fmt.Sprintf("warm-up: registry digest %.12s differs from the first warm-up's %.12s", d, ref[0]))
		}
	}
	var timed time.Duration
	for len(st.rates) < minReps || timed < seconds {
		runtime.GC()
		rep := w.run(seed, false)
		timed += rep.wall
		st.attempted += rep.attempted()
		digests, failures := rep.check(ref, false)
		st.failures = append(st.failures, failures...)
		if len(ref) < len(digests) {
			ref = digests
		}
		sim := w.simSeconds()
		st.rates = append(st.rates, sim/rep.wall.Seconds())
		for _, d := range rep.runWalls {
			st.runWalls = append(st.runWalls, float64(d)/float64(time.Millisecond))
		}
		st.allocBytes = append(st.allocBytes, float64(rep.allocBytes)/sim)
		st.allocs = append(st.allocs, float64(rep.allocs)/sim)
		st.retained = append(st.retained, float64(rep.retainedHeap())/(1<<20))
	}
	st.attempted++
	if msg := checkTraced(w, seed, ref); msg != "" {
		st.failures = append(st.failures, "traced: "+msg)
	}
	st.digest = combine(ref)
	return st
}

// checkTraced makes run 0 (or the fleet) again with tracing on and checks
// that its registry equals the untraced one: tracing must change no result.
func checkTraced(w workload, seed int64, ref []string) string {
	if w.fleet > 0 {
		rep := w.run(seed, true)
		_, failures := rep.check(ref, true)
		if len(failures) > 0 {
			return failures[0]
		}
		return ""
	}
	cfg := w.runConfig(core.DeriveSeed(seed, 0), true)
	r, err := core.RunWithTimeout(cfg, runTimeout)
	if err != nil {
		return err.Error()
	}
	_, msg := checkRegistry(r.MetricsRegistry(), ledgerOf(r.Trace), ref, 0)
	return msg
}

// setUp builds the workload's configuration and seeds and makes the
// warm-up run: run 0 of the campaign, or the whole fleet. It returns the
// host seconds taken and the warm-up's registry digest.
func setUp(w workload, seed int64) (float64, string, string) {
	start := time.Now()
	cfg := w.runConfig(seed, false)
	var reg *obs.Registry
	if w.fleet > 0 {
		fr, errs := core.RunFleet(core.FleetConfig{Config: cfg, Size: w.fleet, Sched: w.sched, Workers: 1})
		for _, err := range errs {
			if err != nil {
				return time.Since(start).Seconds(), "", err.Error()
			}
		}
		reg = fr.MetricsRegistry()
	} else {
		cfg.Seed = core.DeriveSeed(seed, 0)
		r, err := core.RunWithTimeout(cfg, runTimeout)
		if err != nil {
			return time.Since(start).Seconds(), "", err.Error()
		}
		reg = r.MetricsRegistry()
	}
	secs := time.Since(start).Seconds()
	d, msg := checkRegistry(reg, nil, nil, 0)
	return secs, d, msg
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
