package main

import (
	"fmt"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/repair"
)

// workload is one named campaign the benchmark times. Each repetition runs
// the same campaign: runs independent flights seeded DeriveSeed(seed, i),
// or, for a fleet workload, one RunFleet of fleet UAVs on a shared map.
type workload struct {
	name string
	why  string
	cfg  core.Config // template; Seed is the workload seed
	// runs is the campaign size per repetition (campaign workloads).
	runs int
	// fleet, when positive, makes the workload one fleet run per repetition.
	fleet int
	sched cell.SchedulerKind
}

// horizon is the per-run simulated length of the campaign workloads. It runs
// well past SCReAM's 10 s base-delay window, so the per-ack rescan of that
// window is represented at its steady-state size.
const horizon = 60 * time.Second

// workloads is the benchmark's workload table. Every workload names the
// layers it exists to load and the layers it leaves idle, so a later change
// knows which workload must move and which must stay flat.
var workloads = []workload{
	{
		// The paper's headline defect path (§4.2.1): SCReAM's RFC 8888
		// feedback at a 10 ms cadence with a 256-packet ack window, on the
		// low-capacity rural map. The scream and rtp.ccfb layers dominate.
		// Idle: gcc, rtp.twcc, repair, bond, fleet scheduling.
		name: "rural-scream-air",
		why:  "rural aerial SCReAM campaign: the per-ack feedback path of the paper's headline defect (scream, rtp.ccfb)",
		cfg:  core.Config{Env: cell.Rural, Op: cell.P1, Air: true, CC: core.CCSCReAM, Duration: horizon},
		// The SCReAM rate, and so the work per simulated second, differs
		// from flight to flight; eight flights keep a seed's average steady.
		runs: 8,
	},
	{
		// The existing urban-gcc scenario and BENCH_run.json at a longer
		// horizon: the highest packet rate, so the per-packet layers (sim,
		// link, rtp packetize/twcc, gcc, flight, metrics) dominate. It is the
		// control for any SCReAM-only change. Idle: scream, rtp.ccfb,
		// repair, bond, fleet scheduling.
		name: "urban-gcc-ground",
		why:  "urban ground GCC campaign: highest packet rate, so the per-packet layers dominate; control for SCReAM-only changes",
		cfg:  core.Config{Env: cell.Urban, Op: cell.P1, CC: core.CCGCC, Duration: horizon},
		runs: 12,
	},
	{
		// Aerial GCC with failover bonding, NACK/RTX repair, RLF, a
		// primary-path blackout, a both-path blackout and loss fades. Timers
		// are cancelled instead of fired, stale queues are flushed, two paths
		// are served and the repair cache is written beside its lookups.
		// Idle: scream, rtp.ccfb, fleet scheduling.
		name: "urban-fault-repair",
		why:  "urban aerial GCC with failover bonding, NACK/RTX repair, RLF, blackouts and loss fades: the repair and bond layers",
		cfg: core.Config{
			Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCGCC, Duration: horizon,
			Bond:   bond.Config{Policy: bond.PolicyFailover},
			Repair: repair.Config{Enabled: true},
			Faults: fault.Config{
				Windows: []fault.Window{
					{Start: 8 * time.Second, Duration: 80 * time.Millisecond, Dir: fault.Both, Loss: true},
					{Start: 15 * time.Second, Duration: 2 * time.Second, Dir: fault.Both, Path: fault.PathPrimary},
					{Start: 27 * time.Second, Duration: 60 * time.Millisecond, Dir: fault.Both, Loss: true},
					{Start: 35 * time.Second, Duration: 1500 * time.Millisecond, Dir: fault.Both},
					{Start: 48 * time.Second, Duration: 120 * time.Millisecond, Dir: fault.Both, Loss: true},
				},
				RLF:              true,
				Watchdog:         true,
				KeyframeRecovery: true,
			},
		},
		// Faults, RLFs and failovers make runs differ more than on the
		// clean path, so the campaign is larger to keep its per-seed
		// averages steady.
		runs: 24,
	},
	{
		// An aerial static-rate fleet on one shared urban cell map under the
		// round-robin PRB scheduler: the only workload that exercises shared
		// cell scheduling and the fleet's attach-precompute and contention
		// phases. Sim-seconds count UAVs x horizon. Idle: gcc, scream,
		// rtp.twcc, rtp.ccfb, repair, bond.
		name:  "urban-fleet",
		why:   "urban aerial static-rate fleet on one shared cell map (RR scheduler): shared cell scheduling and fleet phases",
		cfg:   core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCStatic, Duration: 3 * time.Second},
		fleet: 200,
		sched: cell.SchedRR,
	},
}

// workloadByName resolves a workload from the table.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// simSeconds is the simulated time one repetition covers.
func (w workload) simSeconds() float64 {
	if w.fleet > 0 {
		return float64(w.fleet) * w.cfg.Duration.Seconds()
	}
	return float64(w.runs) * w.cfg.Duration.Seconds()
}
