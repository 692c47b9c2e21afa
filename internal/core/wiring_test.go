package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
)

// wiringCase is one row of the pipeline wiring matrix: a short traced run
// through a pipeline branch that no golden trace covers.
type wiringCase struct {
	name string
	cfg  Config
}

// wiringCases covers every branch of the video and ping pipelines: each CC
// regime and its feedback plane, the player options, repair, every bonding
// scheduler, the §5 extensions, fleet capacity shares and the probe
// workload. Every row is traced.
func wiringCases() []wiringCase {
	outage := fault.Config{
		Windows: []fault.Window{
			{Start: 4 * time.Second, Duration: 1500 * time.Millisecond, Dir: fault.Both},
			{Start: 9 * time.Second, Duration: 600 * time.Millisecond, Dir: fault.Uplink},
		},
		RLF:              true,
		Watchdog:         true,
		KeyframeRecovery: true,
	}
	fades := fault.Config{Windows: []fault.Window{
		{Start: 3 * time.Second, Duration: 80 * time.Millisecond, Dir: fault.Uplink, Loss: true},
		{Start: 7 * time.Second, Duration: 120 * time.Millisecond, Dir: fault.Uplink, Loss: true},
	}}
	primaryBlackout := fault.Config{
		Windows: []fault.Window{{Start: 5 * time.Second, Duration: 2 * time.Second, Dir: fault.Both, Path: fault.PathPrimary}},
		RLF:     true,
	}
	urbanAir := func(cc CCKind, seed int64) Config {
		return Config{Env: cell.Urban, Air: true, CC: cc, Seed: seed, Duration: 12 * time.Second}
	}
	var cases []wiringCase
	add := func(name string, cfg Config) { cases = append(cases, wiringCase{name, cfg}) }

	c := Config{Env: cell.Urban, Air: true, CC: CCStatic, StaticRate: 34e6, Seed: 2, Duration: 12 * time.Second,
		DropOnLatency: true, JitterBuffer: 200 * time.Millisecond}
	add("static-drop-jitterbuffer", c)

	c = urbanAir(CCGCC, 3)
	c.KeepSeries = true
	add("gcc-kalman-series", c)

	c = urbanAir(CCGCC, 4)
	c.GCCTrendline = true
	add("gcc-trendline", c)

	c = Config{Env: cell.Rural, Air: true, CC: CCSCReAM, Seed: 5, Duration: 12 * time.Second,
		ScreamAckWindow: 64, ScreamFeedbackInterval: 20 * time.Millisecond}
	add("scream-w64-20ms", c)

	// Rural ground seed 15 declares a handover failure inside the window.
	c = Config{Env: cell.Rural, CC: CCSCReAM, Seed: 15, Duration: 15 * time.Second}
	c.Faults = outage
	c.KeepSeries = true
	add("scream-outage-rlf-watchdog-keyframe", c)

	c = urbanAir(CCGCC, 7)
	c.Faults = fades
	c.Repair = repair.Config{Enabled: true}
	c.KeepSeries = true
	add("gcc-repair-fades", c)

	c = urbanAir(CCGCC, 8)
	c.Bond = bond.Config{Policy: bond.PolicyDuplicate}
	add("bond-duplicate", c)

	c = urbanAir(CCGCC, 9)
	c.Bond = bond.Config{Policy: bond.PolicyCheapest}
	c.Faults = primaryBlackout
	add("bond-cheapest", c)

	c = urbanAir(CCSCReAM, 10)
	c.Bond = bond.Config{Policy: bond.PolicySpray}
	c.Faults = primaryBlackout
	add("bond-spray-scream", c)

	c = urbanAir(CCStatic, 11)
	c.StaticRate, c.Duration = 40e6, 15*time.Second
	c.AQM, c.DAPS = true, true
	add("aqm-daps", c)

	c = urbanAir(CCGCC, 12)
	c.CapacityShare = func(time.Duration) float64 { return 0.6 }
	add("capacity-share", c)

	add("ping", Config{Env: cell.Urban, Air: true, Workload: WorkloadPing, Seed: 13, Duration: 12 * time.Second})
	add("ping-offset", Config{Env: cell.Rural, Air: true, Workload: WorkloadPing, Seed: 14, Duration: 12 * time.Second,
		OffsetX: 350, OffsetY: -200})

	for i := range cases {
		cases[i].cfg.Trace = true
	}
	return cases
}

// wiringDigest hashes everything a run exports: the metrics registry, the
// telemetry registry, the JSONL trace, and a dump of the Result fields the
// registry does not carry.
func wiringDigest(t *testing.T, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.MetricsRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Telemetry.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&buf, TraceRunMeta(r, 0), r.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	if r.OWDSeries != nil {
		fmt.Fprintf(&buf, "owd=%v\ntarget=%v\ngoodput=%v\n",
			r.OWDSeries.Points(), r.TargetSeries.Points(), r.GoodputSeries.Points())
	}
	fmt.Fprintf(&buf, "loss=%v\nhandovers=%+v\nstalls=%+v\nepisodes=%+v\nbond=%+v\n",
		r.LossTimes, r.Handovers, r.Stalls, r.FaultEpisodes, r.BondPaths)
	fmt.Fprintf(&buf, "scream=%d/%d/%d/%d\n",
		r.ScreamLosses, r.ScreamLossesInBand, r.ScreamLossesWindow, r.ScreamDiscards)
	for b := range r.OWDByAlt {
		fmt.Fprintf(&buf, "alt%d owd=%d/%v rtt=%d/%v\n", b,
			r.OWDByAlt[b].N(), r.OWDByAlt[b].Sum(), r.RTTByAlt[b].N(), r.RTTByAlt[b].Sum())
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestPipelineWiringPinned pins the complete output of every row of the
// wiring matrix to a SHA-256 recorded on the reference pipeline. The
// simulation is deterministic, so any change to stage wiring, scheduling
// order or randomness draws shows up as a digest change; a deliberate
// behaviour change must re-record the digests in its own commit. Every row
// also balances the conservation ledger (checkLedger).
func TestPipelineWiringPinned(t *testing.T) {
	want := map[string]string{
		"static-drop-jitterbuffer":            "a0eafa262cd35856460646a1861fcc1038070942ae0a697b901fcbfa06ad2ddb",
		"gcc-kalman-series":                   "8e5afd72f2b203805fcb54ee9cfbf10d9bd167dcca2353d6e2e7736c18ee1744",
		"gcc-trendline":                       "b9b7804974f73395be46af14d4d5284ec883c2376d78a7fc1dbaac9a6b6622c7",
		"scream-w64-20ms":                     "b60ad56093a5ce347123e828862aef8565ccc3563788f5f3f77a3a89d4571d3e",
		"scream-outage-rlf-watchdog-keyframe": "70920e41a69cc2fa16a3ebdf4fcc3289ae56b133b9e06145ae816760270bc341",
		"gcc-repair-fades":                    "ba4eecc7cab39a1fc72103e77cb331d53283769da8d308d24d2a9a84ca1e3b90",
		"bond-duplicate":                      "04eac09e00faa029b293c79d64dc814aa029f35bd09267abfbd2a8a85f6b1010",
		"bond-cheapest":                       "62f61164af971d8a7c0eb6e2fa2eab9acc0c0f0114468e95e17ce9889b5b1ec9",
		"bond-spray-scream":                   "eac23e51c428d77e2b0e3c644b8bf0ea516f10fa616f0a0bf98643b7de9d57e0",
		"aqm-daps":                            "f992ddaa128ec67bd8e257b6a39b5d6510d99a0ef47ff52a70c78b6cc5052f4c",
		"capacity-share":                      "768bdbeca3dfb91276631340b0b85842c762ed637244e9c489d618dccb503018",
		"ping":                                "0f8bd086a3396d5740bc9a0dc024462525892fc6e9ef80709fcb764efeca1cae",
		"ping-offset":                         "886cc6baa19e5eca24f4ca79720af6ed1752e1b72a70160141b8ca509f569d4c",
	}
	for _, tc := range wiringCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := wiringDigest(t, runLedgered(t, tc.cfg))
			if got != want[tc.name] {
				t.Errorf("digest = %s, want %s", got, want[tc.name])
			}
		})
	}
}
