package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec describes one reported metric in BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd lists the metrics of untraced runs (--trace 0). Bound is the
// share of the parent's median by which a metric may worsen. A run's
// failures are its attempted and failed counts (failed_run_share, printed
// beside the metrics), not a metric: the metrics must never be zero.
var endToEnd = []metricSpec{
	{"sim_rate", "sim_s/s", "higher", bound(0.25)},
	{"run_wall_ms_p50", "ms", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"alloc_bytes_per_sim_s", "B/sim_s", "lower", bound(0.2)},
	{"allocs_per_sim_s", "1/sim_s", "lower", bound(0.2)},
	{"retained_heap_mb", "MB", "lower", bound(0.2)},
}

// metrics renders the end-to-end metrics of one invocation.
func (st *e2eStats) metrics() map[string]metric {
	vals := map[string]float64{
		"sim_rate":              median(st.rates),
		"run_wall_ms_p50":       median(st.runWalls),
		"setup_s":               median(st.setups),
		"alloc_bytes_per_sim_s": median(st.allocBytes),
		"allocs_per_sim_s":      median(st.allocs),
		"retained_heap_mb":      median(st.retained),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// spec is the content of BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the host time one benchmark invocation measures.
const runSeconds = 20

// benchSpec builds the benchmark description from the workload and metric
// tables, so BENCHMARK.json cannot drift from what the benchmark reports.
func benchSpec() spec {
	s := spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

// writeSpecFile writes BENCHMARK.json.
func writeSpecFile(path string) error {
	out, err := json.MarshalIndent(benchSpec(), "", "  ")
	if err != nil {
		return fmt.Errorf("encode spec: %w", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spec: %w", err)
	}
	return nil
}

// sortedKeys returns a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
