package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"rpivideo/internal/core"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
)

// layerStats is the traced ledger of one benchmark invocation.
type layerStats struct {
	metrics   map[string]metric
	attempted int
	failures  []string
	digest    string
}

// counts are the program-made per-layer counts, read from results, their
// telemetry and their trace events.
var counts = []metricSpec{
	{"link.pkts_sent_per_s", "1/sim_s", "higher", nil},
	{"link.drop_share", "share", "lower", nil},
	{"link.queue_delay_ms_p50", "ms", "lower", nil},
	{"link.queue_delay_ms_p99", "ms", "lower", nil},
	{"cell.handovers_per_min", "1/sim_min", "lower", nil},
	{"cell.rlfs", "count", "lower", nil},
	{"cc.reports_per_s", "1/sim_s", "lower", nil},
	{"cc.acks_per_report", "count", "lower", nil},
	{"video.played_share", "share", "higher", nil},
	{"video.stalls_per_min", "1/sim_min", "lower", nil},
	{"repair.nacks_per_s", "1/sim_s", "lower", nil},
	{"repair.heal_ratio", "share", "higher", nil},
	{"bond.failovers", "count", "lower", nil},
	{"bond.reorder_drops", "count", "lower", nil},
	{"cell.attach_events", "count", "lower", nil},
	{"cell.overload_s", "s", "lower", nil},
	{"obs.trace_events_per_s", "1/sim_s", "lower", nil},
	{"obs.trace_overhead", "share", "lower", nil},
}

// perLayer lists every per-layer metric (--trace 1), in report order.
func perLayer() []metricSpec {
	out := append([]metricSpec(nil), counts...)
	for _, r := range replays {
		out = append(out,
			metricSpec{r.name + ".calls_per_s", "1/sim_s", "lower", nil},
			metricSpec{r.name + ".ns_per_call", "ns", "lower", nil},
			metricSpec{r.name + ".allocs_per_call", "count", "lower", nil},
		)
	}
	for _, k := range shareKeys() {
		out = append(out, metricSpec{k, "share", "lower", nil})
	}
	return out
}

// span accumulates the host time and heap objects of a replay's measured
// region.
type span struct {
	start   time.Time
	mallocs uint64
	elapsed time.Duration
	allocs  uint64
}

func (sp *span) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sp.mallocs = ms.Mallocs
	sp.start = time.Now()
}

func (sp *span) end() {
	sp.elapsed += time.Since(sp.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sp.allocs += ms.Mallocs - sp.mallocs
}

// mergeSink folds the registries a fleet publishes per UAV (metrics plus
// telemetry) into one. RunFleet calls it under its fold lock.
type mergeSink struct{ reg *obs.Registry }

func (m *mergeSink) PublishStatus(obs.StatusSnapshot) {}
func (m *mergeSink) ObserveRun(r *obs.Registry)       { m.reg.Merge(r) }

// measureLayers makes the traced ledger: alternating untraced and traced
// repetitions (the tracing overhead and the check that tracing changes no
// result), one profiled traced repetition whose results give the program's
// counts, and the per-layer replays of its first run's trace.
func measureLayers(w workload, seed int64, seconds time.Duration) *layerStats {
	lt := &layerStats{metrics: make(map[string]metric)}
	start := time.Now()
	// Every metric is reported, zero until measured, so a failed step
	// still leaves a complete (and incorrect) result.
	units := make(map[string]string)
	for _, m := range perLayer() {
		units[m.Name] = m.Unit
		lt.metrics[m.Name] = metric{Unit: m.Unit}
	}
	set := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: unlisted metric " + name)
		}
		lt.metrics[name] = metric{Value: v, Unit: unit}
	}
	fail := func(msgs ...string) { lt.failures = append(lt.failures, msgs...) }

	var ref []string
	var plain, traced []float64
	for len(plain) == 0 || time.Since(start) < seconds/2 {
		runtime.GC()
		u := w.run(seed, false)
		lt.attempted += u.attempted()
		digests, failures := u.check(ref, false)
		fail(failures...)
		if ref == nil {
			ref = digests
		}
		plain = append(plain, u.wall.Seconds())
		runtime.GC()
		t := w.run(seed, true)
		lt.attempted += t.attempted()
		_, failures = t.check(ref, true)
		fail(failures...)
		traced = append(traced, t.wall.Seconds())
	}
	lt.digest = combine(ref)
	set("obs.trace_overhead", median(traced)/median(plain)-1)

	// The profiled repetition. A fleet's per-UAV registries, telemetry
	// included, arrive through the status sink; campaign runs keep theirs.
	runtime.GC()
	agg := obs.NewRegistry()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fail(fmt.Sprintf("cpu profile: %v", err))
	}
	var sink obs.StatusSink
	if w.fleet > 0 {
		sink = &mergeSink{agg}
	}
	rep := w.runWith(seed, true, sink)
	pprof.StopCPUProfile()
	lt.attempted += rep.attempted()
	_, failures := rep.check(ref, true)
	fail(failures...)
	if len(failures) > 0 {
		return lt
	}
	for _, r := range rep.results {
		agg.Merge(r.MetricsRegistry())
		agg.Merge(r.Telemetry)
	}
	for k, v := range programCounts(w, rep, agg) {
		set(k, v)
	}
	if self, err := selfTime(prof.Bytes()); err != nil {
		fail(err.Error())
	} else {
		shares := cpuShares(self)
		for _, k := range shareKeys() {
			set(k, shares[k])
		}
	}

	// The replays feed run 0's traced input stream to each layer. A fleet
	// keeps no per-UAV traces, so its replays use UAV 0's configuration run
	// solo, without the shared cell map.
	var in *replayInput
	if w.fleet > 0 {
		cfg := w.runConfig(core.DeriveSeed(seed, 0), false)
		lt.attempted += 2
		plainRun, err := core.RunWithTimeout(cfg, runTimeout)
		if err != nil {
			fail(fmt.Sprintf("replay input: %v", err))
			return lt
		}
		d, err := digest(plainRun.MetricsRegistry())
		if err != nil {
			fail(err.Error())
			return lt
		}
		cfg.Trace = true
		r, err := core.RunWithTimeout(cfg, runTimeout)
		if err != nil {
			fail(fmt.Sprintf("replay input: %v", err))
			return lt
		}
		in = newReplayInput(r, []*core.Result{r}, d)
	} else {
		in = newReplayInput(rep.results[0], rep.results, ref[0])
	}
	for _, rp := range replays {
		calls, ns, allocs, err := timeReplay(rp, in)
		lt.attempted++
		if err != nil {
			fail(fmt.Sprintf("replay %s: %v", rp.name, err))
		}
		set(rp.name+".calls_per_s", float64(calls)/in.dur.Seconds())
		set(rp.name+".ns_per_call", ns)
		set(rp.name+".allocs_per_call", allocs)
	}
	return lt
}

// timeReplay runs a layer's replay until it has spent replayTime (at least
// three rounds, the first a warm-up) and returns its calls and the median
// host nanoseconds and heap objects per call. An idle layer reports zeros.
func timeReplay(rp replay, in *replayInput) (int, float64, float64, error) {
	const (
		replayTime = 150 * time.Millisecond
		minRounds  = 3
		maxRounds  = 50
	)
	if !rp.active(in) {
		return 0, 0, 0, nil
	}
	var ns, allocs []float64
	calls := 0
	start := time.Now()
	for round := 0; round < minRounds || (round < maxRounds && time.Since(start) < replayTime); round++ {
		var sp span
		n, err := rp.run(in, &sp)
		if err != nil {
			return 0, 0, 0, err
		}
		if n == 0 {
			return 0, 0, 0, nil // the workload never reached the layer
		}
		calls = n
		if round > 0 {
			ns = append(ns, float64(sp.elapsed.Nanoseconds())/float64(n))
			allocs = append(allocs, float64(sp.allocs)/float64(n))
		}
	}
	return calls, median(ns), median(allocs), nil
}

// programCounts reads the per-layer counts the program itself makes, from
// the merged registry of the traced repetition and its trace events.
func programCounts(w workload, rep repetition, agg *obs.Registry) map[string]float64 {
	c := func(name string) float64 { return float64(agg.Counter(name)) }
	simS := w.simSeconds()
	simMin := simS / 60
	out := map[string]float64{
		"link.pkts_sent_per_s":   c("packets_sent") / simS,
		"link.drop_share":        ratio(c("packets_lost")+c("packets_overflow")+c("aqm_drops")+c("stale_drops"), c("packets_sent")),
		"cell.handovers_per_min": c("handovers") / simMin,
		"cell.rlfs":              c("rlfs"),
		"video.played_share":     ratio(c("frames_played"), c("frames_played")+c("frames_skipped")),
		"video.stalls_per_min":   c("stalls") / simMin,
		"repair.nacks_per_s":     c("nacks_sent") / simS,
		"bond.failovers":         c("bond_switches"),
		"bond.reorder_drops":     c("bond_reorder_late"),
	}
	q := agg.LogHistogram(core.TelemetryQueueDelay)
	out["link.queue_delay_ms_p50"] = logQuantile(q, 0.5)
	out["link.queue_delay_ms_p99"] = logQuantile(q, 0.99)

	var reports, acks, nacked, events float64
	for _, r := range rep.results {
		events += float64(r.Trace.Emitted())
		nacked += float64(ledgerOf(r.Trace).nacked)
		for _, ev := range r.Trace.Events() {
			if ev.Kind == obs.KindCC {
				reports++
				acks += float64(ev.Aux)
			}
		}
	}
	var attaches, overload float64
	if fr := rep.fleet; fr != nil {
		events = float64(len(fr.CellEvents))
		for _, ev := range fr.CellEvents {
			if ev.Kind == obs.KindCellAttach {
				attaches++
			}
		}
		overload = float64(fr.OverloadEpochs) * fr.Epoch.Seconds()
	}
	out["cc.reports_per_s"] = reports / simS
	out["cc.acks_per_report"] = ratio(acks, reports)
	out["repair.heal_ratio"] = ratio(c("packets_repaired"), nacked)
	out["cell.attach_events"] = attaches
	out["cell.overload_s"] = overload
	out["obs.trace_events_per_s"] = events / simS
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// logQuantile reads a quantile off a log histogram's exported buckets: the
// upper edge of the bucket holding the q-th observation.
func logQuantile(h *obs.LogHistogram, q float64) float64 {
	raw, err := h.MarshalJSON()
	if err != nil {
		return 0
	}
	var exp struct {
		Count   int64            `json:"count"`
		Zero    int64            `json:"zero"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if json.Unmarshal(raw, &exp) != nil || exp.Count == 0 {
		return 0
	}
	idx := make([]int, 0, len(exp.Buckets))
	for k := range exp.Buckets {
		i, err := strconv.Atoi(k)
		if err != nil {
			return 0
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	rank := int64(q * float64(exp.Count))
	seen := exp.Zero
	for _, i := range idx {
		seen += exp.Buckets[strconv.Itoa(i)]
		if seen > rank {
			return metrics.BucketUpper(int32(i))
		}
	}
	if len(idx) == 0 {
		return 0
	}
	return metrics.BucketUpper(int32(idx[len(idx)-1]))
}
