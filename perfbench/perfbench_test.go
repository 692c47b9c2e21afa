package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/core"
)

// shortInput makes a short traced run of a workload's configuration (run 0,
// solo for the fleet) and indexes it for the replays.
func shortInput(t *testing.T, w workload) *replayInput {
	t.Helper()
	cfg := w.runConfig(core.DeriveSeed(7, 0), false)
	cfg.Duration = 6 * time.Second
	d, err := digest(core.Run(cfg).MetricsRegistry())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	r := core.Run(cfg)
	return newReplayInput(r, []*core.Result{r}, d)
}

// TestReplaysFeedTracedVolume runs every layer's replay on every workload:
// each active replay must pass its self-check (it fed the volume the trace
// recorded) and make calls; an idle layer reports none.
func TestReplaysFeedTracedVolume(t *testing.T) {
	idle := map[string][]string{
		"rural-scream-air":   {"gcc.on_feedback", "rtp.twcc", "repair.detector", "repair.cache"},
		"urban-gcc-ground":   {"scream.on_feedback", "rtp.ccfb", "repair.detector", "repair.cache"},
		"urban-fault-repair": {"scream.on_feedback", "rtp.ccfb"},
		"urban-fleet":        {"gcc.on_feedback", "scream.on_feedback", "rtp.twcc", "rtp.ccfb", "repair.detector", "repair.cache"},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			in := shortInput(t, w)
			if in.recvs == 0 || len(in.media) == 0 {
				t.Fatalf("trace recorded no media: %d sends, %d arrivals", len(in.media), in.recvs)
			}
			for _, rp := range replays {
				wantIdle := false
				for _, name := range idle[w.name] {
					wantIdle = wantIdle || name == rp.name
				}
				if rp.active(in) == wantIdle {
					t.Errorf("%s: active=%v, want idle=%v", rp.name, rp.active(in), wantIdle)
					continue
				}
				if wantIdle {
					continue
				}
				var sp span
				calls, err := rp.run(in, &sp)
				if err != nil {
					t.Errorf("%s: %v", rp.name, err)
				} else if calls == 0 || sp.elapsed <= 0 {
					t.Errorf("%s: %d calls in %v", rp.name, calls, sp.elapsed)
				}
			}
		})
	}
}

// TestSelfChecksCatchShortfall hides part of the traced input from the
// replays while keeping the trace's recorded totals: every replay that
// consumes the hidden part must then fail its self-check.
func TestSelfChecksCatchShortfall(t *testing.T) {
	w, err := workloadByName("urban-fault-repair")
	if err != nil {
		t.Fatal(err)
	}
	in := shortInput(t, w)
	short := *in
	short.fates = in.fates[:len(in.fates)/2]
	short.media = in.media[:len(in.media)/2]
	short.sends = in.sends[:len(in.sends)/2]
	for _, name := range []string{"sim.schedule", "link.serve", "flight.at", "gcc.on_feedback", "rtp.twcc", "rtp.packetize", "rtp.depacketize", "repair.detector", "repair.cache"} {
		for _, rp := range replays {
			if rp.name != name {
				continue
			}
			var sp span
			if _, err := rp.run(&short, &sp); err == nil {
				t.Errorf("%s: replayed half the trace without failing its self-check", name)
			}
		}
	}
}

// TestTracingChangesNoResult checks, on every workload, that a traced
// repetition publishes the same registries as an untraced one and that
// the output checks pass on both.
func TestTracingChangesNoResult(t *testing.T) {
	for _, w := range workloads {
		w.runs = 1
		w.fleet = min(w.fleet, 20)
		w.cfg.Duration = min(w.cfg.Duration, 10*time.Second)
		plain := w.run(3, false)
		ref, failures := plain.check(nil, false)
		if len(failures) > 0 {
			t.Errorf("%s untraced: %v", w.name, failures)
		}
		if _, failures := w.run(3, true).check(ref, true); len(failures) > 0 {
			t.Errorf("%s traced: %v", w.name, failures)
		}
	}
}

// TestProfileShares decodes a real CPU profile of a short campaign and
// attributes its self time to the internal packages.
func TestProfileShares(t *testing.T) {
	w, err := workloadByName("urban-gcc-ground")
	if err != nil {
		t.Fatal(err)
	}
	w.runs = 3
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	w.run(1, false)
	pprof.StopCPUProfile()
	self, err := selfTime(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(self)
	var internal float64
	for _, p := range cpuPackages {
		internal += shares[p+".cpu_share"]
	}
	if internal <= 0.2 || internal > 1 {
		t.Errorf("internal packages hold %.3f of the profile, want a majority share", internal)
	}
	if shares["sim.cpu_share"] <= 0 || shares["link.cpu_share"] <= 0 {
		t.Errorf("sim %.3f, link %.3f: the event loop and link must show", shares["sim.cpu_share"], shares["link.cpu_share"])
	}
}

// TestSpecFile checks that BENCHMARK.json is what the workload and metric
// tables describe (regenerate it with -write-spec ../BENCHMARK.json).
func TestSpecFile(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir() + "/BENCHMARK.json"
	if err := writeSpecFile(tmp); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -write-spec")
	}
	seen := make(map[string]bool)
	for _, m := range append(perLayer(), endToEnd...) {
		if strings.ContainsAny(m.Unit, " ") || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("metric %q: duplicate or malformed name, or malformed unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
}
