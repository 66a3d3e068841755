package exp

import (
	"fmt"
	"strings"
	"testing"

	root "ezflow"
)

// TestStabilityExperiment is the paper-facing acceptance check of the
// dynamics subsystem: after a mid-run failure of the chain's middle link,
// EZ-Flow recovers — finite recovery time, relay buffers back off the cap
// by the final third — while plain 802.11's relays keep hitting the
// 50-packet cap.
func TestStabilityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	r := Stability(Options{Seed: 1, Scale: 0.25, Parallel: 4})
	ez := r.Get(root.ModeEZFlow)
	plain := r.Get(root.Mode80211)
	if ez == nil || plain == nil {
		t.Fatalf("missing modes in %+v", r.Runs)
	}

	if !ez.Recovered || ez.RecoverySec < 0 {
		t.Errorf("EZ-Flow did not recover: %+v", ez)
	}
	if ez.RecoverySec > 120 {
		t.Errorf("EZ-Flow recovery took %.0fs — not a finite, prompt recovery", ez.RecoverySec)
	}
	// The outage itself fills the upstream relay regardless of mode; the
	// controllers differ in what happens afterwards.
	if ez.TailMaxQueuePkts >= 25 {
		t.Errorf("EZ-Flow tail queue %0.f pkts — did not restabilise", ez.TailMaxQueuePkts)
	}
	if plain.TailMaxQueuePkts < 40 {
		t.Errorf("802.11 tail queue %.0f pkts — expected divergence at the cap", plain.TailMaxQueuePkts)
	}
	if ez.PreFaultKbps <= 0 || plain.PreFaultKbps <= 0 {
		t.Error("missing pre-fault throughput")
	}

	// The report must carry one line per mode plus the fault header.
	if len(r.Report.Lines) < 4 {
		t.Errorf("report too short:\n%s", r.Report.String())
	}
}

// TestStabilityBaselineIncludesFaultBin pins the pre-fault baseline at
// the shortest horizon: a 30-s run with the fault at 10 s and 10-s bins,
// whose only pre-fault bin ends exactly at the fault. That bin must count,
// so every mode gets a baseline and a real recovery figure.
func TestStabilityBaselineIncludesFaultBin(t *testing.T) {
	r := Stability(Options{Seed: 1, Scale: 0.05, Parallel: 1})
	for _, run := range r.Runs {
		if !run.Baseline || run.PreFaultKbps <= 0 {
			t.Errorf("%v: no pre-fault baseline: %+v", run.Mode, run)
		}
	}
	if got := fmt.Sprintf("%.1f", r.Get(root.Mode80211).PreFaultKbps); got != "217.9" {
		t.Errorf("802.11 pre-fault baseline %s kb/s, want 217.9", got)
	}
}

// TestStabilityLineWithoutBaseline: a flow with no pre-fault traffic has
// no recovery entry, and its report line must say so instead of
// claiming a 0-s recovery.
func TestStabilityLineWithoutBaseline(t *testing.T) {
	res := &root.Result{
		Flows: map[root.FlowID]*root.FlowResult{1: {}},
		Stability: &root.StabilityResult{
			PreFaultKbps: map[root.FlowID]float64{1: 0},
			RecoverySec:  map[root.FlowID]float64{},
			Recovered:    true,
		},
	}
	run := newStabilityRun(root.ModeEZFlow, res)
	if run.Baseline {
		t.Fatal("a flow without a recovery entry reports a baseline")
	}
	line := run.line()
	if !strings.Contains(line, "recovery no baseline") || strings.Contains(line, "0.000000s") {
		t.Errorf("report line %q", line)
	}
}
