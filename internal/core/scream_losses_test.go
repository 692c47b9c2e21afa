package core

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
)

// TestScreamLossCountersPinned pins SCReAM's loss and discard counters on
// seeded urban and rural flights at both ack windows. The metrics registry
// carries none of these counters, so the goldens would not notice a change
// to the loss-detection paths; this test does. The values are exact: the
// simulation is deterministic, and the loss counters are sums, so any
// equivalent bookkeeping must reproduce them.
func TestScreamLossCountersPinned(t *testing.T) {
	blackout := fault.Config{
		Windows:  []fault.Window{{Start: 20 * time.Second, Duration: 2 * time.Second, Dir: fault.Both}},
		Watchdog: true,
	}
	cases := []struct {
		name string
		cfg  Config
		// losses, inBand, window, discards
		want [4]int
	}{
		{"urban-w64-40ms", Config{Env: cell.Urban, Air: true, ScreamAckWindow: 64, ScreamFeedbackInterval: 40 * time.Millisecond, Seed: 3}, [4]int{214, 0, 214, 9}},
		{"urban-w256-40ms", Config{Env: cell.Urban, Air: true, ScreamAckWindow: 256, ScreamFeedbackInterval: 40 * time.Millisecond, Seed: 3}, [4]int{104, 51, 53, 6}},
		{"urban-w64", Config{Env: cell.Urban, Air: true, ScreamAckWindow: 64, Seed: 5}, [4]int{101, 0, 101, 4}},
		{"urban-w256", Config{Env: cell.Urban, Air: true, ScreamAckWindow: 256, Seed: 5}, [4]int{46, 19, 27, 5}},
		{"rural-w64", Config{Env: cell.Rural, Air: true, ScreamAckWindow: 64, Seed: 7}, [4]int{45, 0, 45, 13}},
		{"rural-w256", Config{Env: cell.Rural, Air: true, ScreamAckWindow: 256, Seed: 7}, [4]int{32, 21, 11, 10}},
		{"rural-w256-blackout", Config{Env: cell.Rural, Air: true, ScreamAckWindow: 256, Seed: 7, Faults: blackout}, [4]int{25, 14, 11, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CC = CCSCReAM
			cfg.Duration = 40 * time.Second
			r := Run(cfg)
			got := [4]int{r.ScreamLosses, r.ScreamLossesInBand, r.ScreamLossesWindow, r.ScreamDiscards}
			if got != tc.want {
				t.Errorf("losses/in-band/window/discards = %v, want %v", got, tc.want)
			}
		})
	}
}
