package exp

import (
	"strings"
	"testing"

	root "ezflow"
)

// quick is the scale used by the experiment shape tests: long enough for
// the qualitative claims, short enough for CI.
var quick = Options{Seed: 1, Scale: 0.08}

func TestFig1Shape(t *testing.T) {
	r := Fig1(quick)
	// 3-hop stable: every relay's mean buffer far below the 50-pkt cap.
	for node, mean := range r.MeanQueue[3] {
		if mean > 10 {
			t.Errorf("3-hop node %d mean buffer %.1f: should be stable", node, mean)
		}
	}
	// 4-hop turbulent: the first relay's buffer approaches the cap.
	if r.MaxQueue[4][1] < 35 {
		t.Errorf("4-hop N1 max buffer %.0f: expected buildup toward 50", r.MaxQueue[4][1])
	}
	if r.MeanQueue[4][1] < 3*r.MeanQueue[3][1] {
		t.Errorf("4-hop N1 mean %.1f not clearly above 3-hop N1 mean %.1f",
			r.MeanQueue[4][1], r.MeanQueue[3][1])
	}
	// Throughput degrades with the fourth hop.
	if r.ThroughputKbps[4] >= r.ThroughputKbps[3] {
		t.Errorf("4-hop throughput %.1f not below 3-hop %.1f",
			r.ThroughputKbps[4], r.ThroughputKbps[3])
	}
	if !strings.Contains(r.Report.String(), "3-hop") {
		t.Error("report missing content")
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1(quick)
	if len(r.MeanKbps) != 7 {
		t.Fatalf("measured %d links, want 7", len(r.MeanKbps))
	}
	if r.Bottleneck() != 2 {
		t.Errorf("bottleneck is l%d, paper says l2", r.Bottleneck())
	}
	// Every link within 15% of the paper's capacity (the calibration
	// contract of mesh.TestbedLinkLoss).
	for i, got := range r.MeanKbps {
		want := PaperTable1Kbps[i]
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("l%d capacity %.0f kb/s outside 15%% of paper's %.0f", i, got, want)
		}
	}
}

func TestFig4Table2Shape(t *testing.T) {
	r := Fig4Table2(quick)
	if len(r.Runs) != 6 {
		t.Fatalf("runs = %d, want 6", len(r.Runs))
	}
	// EZ-Flow improves each single-flow throughput.
	for _, scen := range []TestbedScenario{F1Alone, F2Alone} {
		f := root.FlowID(1)
		if scen == F2Alone {
			f = 2
		}
		plain := r.Get(scen, root.Mode80211).FlowKbps[f]
		with := r.Get(scen, root.ModeEZFlow).FlowKbps[f]
		if with <= plain {
			t.Errorf("%v: EZ-flow %.1f kb/s not above 802.11 %.1f", scen, with, plain)
		}
	}
	// Parking lot: 802.11 starves the long flow; EZ-Flow improves both
	// the fairness index and the aggregate.
	plain := r.Get(ParkingLot, root.Mode80211)
	with := r.Get(ParkingLot, root.ModeEZFlow)
	if plain.FlowKbps[1] > 0.3*plain.FlowKbps[2] {
		t.Errorf("802.11 parking lot does not starve F1: %v", plain.FlowKbps)
	}
	if with.Fairness <= plain.Fairness {
		t.Errorf("fairness did not improve: %.2f -> %.2f", plain.Fairness, with.Fairness)
	}
	if with.FlowKbps[1] <= plain.FlowKbps[1] {
		t.Errorf("starved flow not helped: %.1f -> %.1f", plain.FlowKbps[1], with.FlowKbps[1])
	}
	// Figure 4: EZ-Flow drains the first relay of F2 (N4).
	if with.MeanQueue[4] >= plain.MeanQueue[4] {
		// N4 is F2's first relay only in the F2Alone runs.
		p2, w2 := r.Get(F2Alone, root.Mode80211), r.Get(F2Alone, root.ModeEZFlow)
		if w2.MeanQueue[4] >= p2.MeanQueue[4] {
			t.Errorf("EZ-flow did not drain N4: %.1f -> %.1f",
				p2.MeanQueue[4], w2.MeanQueue[4])
		}
	}
}

func TestScenario1Shape(t *testing.T) {
	r := Scenario1(quick)
	// Single-flow period: EZ-Flow at least matches plain throughput and
	// improves delay.
	p := "F1-alone-1"
	plain := r.Stats[root.Mode80211][p][1]
	with := r.Stats[root.ModeEZFlow][p][1]
	if with.MeanKbps < plain.MeanKbps*0.95 {
		t.Errorf("%s: EZ-flow %.1f kb/s well below 802.11 %.1f", p, with.MeanKbps, plain.MeanKbps)
	}
	if with.MeanDelaySec >= plain.MeanDelaySec {
		t.Errorf("%s: delay not improved: %.2f -> %.2f", p, plain.MeanDelaySec, with.MeanDelaySec)
	}
	// The relays near the gateway converge to the minimum window while
	// the sources are penalised (the distributed rediscovery of [9]).
	if cw := r.FinalCW["N12->N10"]; cw <= r.FinalCW["N2->N1"] {
		t.Errorf("source cw %d not above trunk relay cw %d", cw, r.FinalCW["N2->N1"])
	}
	// Two-flow period: both flows must get non-trivial service under
	// EZ-Flow.
	for _, f := range []root.FlowID{1, 2} {
		if st := r.Stats[root.ModeEZFlow]["F1+F2"][f]; st.MeanKbps < 20 {
			t.Errorf("EZ-flow starves %v in the merge period: %.1f kb/s", f, st.MeanKbps)
		}
	}
}

func TestScenario2Shape(t *testing.T) {
	// Scenario 2 needs more wall time to converge; still scaled well
	// below the paper's durations.
	o := Options{Seed: 1, Scale: 0.2}
	r := Scenario2(o)
	// 802.11 starves the hidden-source flow F2.
	plainF2 := r.Stats[root.Mode80211]["F1+F2"][2]
	withF2 := r.Stats[root.ModeEZFlow]["F1+F2"][2]
	if plainF2.MeanKbps > 30 {
		t.Errorf("802.11 did not starve F2: %.1f kb/s", plainF2.MeanKbps)
	}
	if withF2.MeanKbps < 3*plainF2.MeanKbps {
		t.Errorf("EZ-flow did not rescue F2: %.1f -> %.1f kb/s",
			plainF2.MeanKbps, withF2.MeanKbps)
	}
	// Fairness improves in both multi-flow periods.
	for _, p := range []string{"F1+F2", "F1+F2+F3"} {
		if r.Fairness[root.ModeEZFlow][p] <= r.Fairness[root.Mode80211][p] {
			t.Errorf("%s: FI not improved: %.2f -> %.2f", p,
				r.Fairness[root.Mode80211][p], r.Fairness[root.ModeEZFlow][p])
		}
	}
	// The hidden source N10 must have been throttled hard.
	if r.FinalCW["N10->N11"] < 256 {
		t.Errorf("hidden source cw = %d, expected strong penalty", r.FinalCW["N10->N11"])
	}
}

func TestTheorem1Shape(t *testing.T) {
	r := Theorem1(Options{Seed: 1, Scale: 0.05})
	if r.FixedMax < 5*r.EZMax {
		t.Errorf("fixed-cw walk max %.0f not clearly above EZ-flow max %.0f",
			r.FixedMax, r.EZMax)
	}
	for region, d := range r.DriftByRegion {
		if d >= 0 {
			t.Errorf("Foster drift in region %s = %+.4f, want negative", region, d)
		}
	}
	total := uint64(0)
	for _, v := range r.RegionVisits {
		total += v
	}
	if total == 0 {
		t.Error("no region visits recorded")
	}
}

func TestOptionsDurFloor(t *testing.T) {
	o := Options{Scale: 0.0001}
	if o.dur(1800).Seconds() < 30 {
		t.Error("duration floor not applied")
	}
	if (Options{}).dur(100).Seconds() != 25+5 {
		// 100 * default 0.25 = 25 -> floored to 30.
		t.Error("zero scale should default and floor")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Name: "x"}
	r.addf("line %d", 1)
	if !strings.Contains(r.String(), "=== x ===") || !strings.Contains(r.String(), "line 1") {
		t.Error("report formatting")
	}
}
