package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"rpivideo/internal/obs"
)

// digest is the SHA-256 of a registry's canonical JSON export: every
// simulated statistic a run publishes, so equal digests mean a speed-only
// change kept the simulation byte-identical.
func digest(reg *obs.Registry) (string, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("export registry: %w", err)
	}
	return digestBytes(buf.Bytes()), nil
}

// digestBytes is the hex SHA-256 of an export.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// combine folds per-run digests, in run order, into one workload digest.
func combine(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// repairLedger is what a run's trace records about its repair layer.
type repairLedger struct {
	nacked    int64 // sequence numbers requested, summed over NACKs (retries included)
	rtxHeals  int64 // losses healed by a retransmission
	lateHeals int64 // losses healed by the original arriving late
}

// ledgerOf tallies a traced run's repair events.
func ledgerOf(tr *obs.Tracer) *repairLedger {
	var l repairLedger
	for _, ev := range tr.Events() {
		switch {
		case ev.Kind == obs.KindNack:
			l.nacked += ev.Aux
		case ev.Kind == obs.KindRepairOK && ev.Aux == 1:
			l.rtxHeals++
		case ev.Kind == obs.KindRepairOK:
			l.lateHeals++
		}
	}
	return &l
}

// conservation checks the counter inequalities every run must satisfy. It
// reads the registry, so it applies alike to one run and to a fleet's
// merged registry (sums of inequalities still hold):
//   - media uplink: sent >= delivered + lost + overflow + AQM + stale;
//   - RTX plane: rtx sent >= delivered + lost + overflow + stale;
//   - per bond path: sent >= delivered + lost;
//   - repair: repaired <= rtx delivered, since each heal the player counts
//     needs a delivered RTX.
//
// With the run's trace (led non-nil) it also checks the repair ledger:
// repaired <= RTX heals <= NACKed sequence numbers (an RTX answers a NACK),
// and late heals equal the late counter. Repaired + abandoned + late is not
// bounded by the NACKed count: the detector abandons an outage-sized gap
// wholesale without NACKing it, and a late original can heal a gap before
// its first NACK.
func conservation(reg *obs.Registry, led *repairLedger) error {
	c := reg.Counter
	if sent, out := c("packets_sent"), c("packets_delivered")+c("packets_lost")+c("packets_overflow")+c("aqm_drops")+c("stale_drops"); sent < out {
		return fmt.Errorf("uplink: sent %d < delivered+lost+overflow+aqm+stale %d", sent, out)
	}
	if sent, out := c("rtx_sent"), c("rtx_delivered")+c("rtx_lost")+c("rtx_overflows")+c("rtx_stale_drops"); sent < out {
		return fmt.Errorf("rtx: sent %d < delivered+lost+overflow+stale %d", sent, out)
	}
	for i := 0; ; i++ {
		p := fmt.Sprintf("bond_path%d_", i)
		sent := c(p + "sent")
		if sent == 0 && c(p+"delivered") == 0 && c(p+"lost") == 0 {
			break
		}
		if out := c(p+"delivered") + c(p+"lost"); sent < out {
			return fmt.Errorf("bond path %d: sent %d < delivered+lost %d", i, sent, out)
		}
	}
	if rep, del := c("packets_repaired"), c("rtx_delivered"); rep > del {
		return fmt.Errorf("repair: repaired %d > rtx delivered %d", rep, del)
	}
	if led == nil {
		return nil
	}
	if rep := c("packets_repaired"); rep > led.rtxHeals || led.rtxHeals > led.nacked {
		return fmt.Errorf("repair: need repaired %d <= rtx heals %d <= NACKed sequence numbers %d", rep, led.rtxHeals, led.nacked)
	}
	if late := c("repair_late"); late != led.lateHeals {
		return fmt.Errorf("repair: late counter %d != late heals traced %d", late, led.lateHeals)
	}
	return nil
}
