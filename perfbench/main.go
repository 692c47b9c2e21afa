// Command perfbench is the repository's benchmark. One invocation runs one
// named workload — a campaign of simulated flights, or a fleet — for a
// fixed host time and prints its metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload urban-gcc-ground --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 it makes one traced campaign and reports the per-layer ledger
// (program-made counts, replay timings and CPU-profile shares). Every run's
// outputs are checked; see README.md for the metrics and what moves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see workloads.go)")
	seed := flag.Int64("seed", 1, "workload seed; per-run seeds derive from it")
	seconds := flag.Int("seconds", runSeconds, "host seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of a traced run")
	writeSpec := flag.String("write-spec", "", "write the benchmark description (BENCHMARK.json) to this file and exit")
	flag.Parse()

	if *writeSpec != "" {
		if err := writeSpecFile(*writeSpec); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fatal(fmt.Errorf("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"))
	}
	dur := time.Duration(*seconds) * time.Second

	var res result
	var failures []string
	if *trace == 0 {
		st := measureE2E(w, *seed, dur)
		res.Attempted, failures = st.attempted, st.failures
		res.Metrics = st.metrics()
		fmt.Printf("workload %s seed %d: %d repetitions, %d runs timed\n", w.name, *seed, len(st.rates), len(st.runWalls))
		fmt.Printf("repetition sim rates: %.4g\n", st.rates)
		fmt.Printf("digest %s\n", st.digest)
	} else {
		lt := measureLayers(w, *seed, dur)
		res.Attempted, failures = lt.attempted, lt.failures
		res.Metrics = lt.metrics
		fmt.Printf("workload %s seed %d: traced ledger\n", w.name, *seed)
		fmt.Printf("digest %s\n", lt.digest)
	}
	res.Failed = len(failures)
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = len(failures) == 0
	for _, f := range failures {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("metric failed_run_share %.6g share\n", float64(res.Failed)/float64(res.Attempted))
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// fatal reports an error and exits without printing a result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(2)
}
