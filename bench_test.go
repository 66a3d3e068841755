// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of EZ-Flow's design choices. Each benchmark
// runs the corresponding experiment once per iteration and records the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports (shape, not absolute
// testbed numbers). The -short durations inside each experiment are
// governed by benchScale.
package ezflow_test

import (
	"testing"

	root "ezflow"
	"ezflow/internal/exp"
)

// benchScale keeps individual benchmark iterations in the seconds range
// while preserving the steady-state shapes.
const benchScale = 0.08

func benchOpts(i int) exp.Options {
	return exp.Options{Seed: int64(i + 1), Scale: benchScale}
}

// BenchmarkFig1BufferEvolution regenerates Figure 1: 3-hop stable vs
// 4-hop turbulent buffer evolution under plain 802.11.
func BenchmarkFig1BufferEvolution(b *testing.B) {
	var last *exp.Fig1Result
	for i := 0; i < b.N; i++ {
		last = exp.Fig1(benchOpts(i))
	}
	b.ReportMetric(last.MeanQueue[3][1], "q1-3hop-pkts")
	b.ReportMetric(last.MeanQueue[4][1], "q1-4hop-pkts")
	b.ReportMetric(last.ThroughputKbps[3], "thr-3hop-kbps")
	b.ReportMetric(last.ThroughputKbps[4], "thr-4hop-kbps")
}

// BenchmarkTable1LinkCapacities regenerates Table 1: the per-link
// capacities of the testbed's flow F1, with l2 the bottleneck.
func BenchmarkTable1LinkCapacities(b *testing.B) {
	var last *exp.Table1Result
	for i := 0; i < b.N; i++ {
		last = exp.Table1(benchOpts(i))
	}
	for i, v := range last.MeanKbps {
		b.ReportMetric(v, "l"+string(rune('0'+i))+"-kbps")
	}
}

// BenchmarkFig4TestbedBuffers regenerates Figure 4: buffer occupancy of
// the testbed relays with and without EZ-Flow (hardware cap 2^10).
func BenchmarkFig4TestbedBuffers(b *testing.B) {
	var last *exp.Fig4Table2Result
	for i := 0; i < b.N; i++ {
		last = exp.Fig4Table2(benchOpts(i))
	}
	plain := last.Get(exp.F2Alone, root.Mode80211)
	with := last.Get(exp.F2Alone, root.ModeEZFlow)
	b.ReportMetric(plain.MeanQueue[4], "N4-80211-pkts")
	b.ReportMetric(with.MeanQueue[4], "N4-ezflow-pkts")
}

// BenchmarkTable2TestbedThroughput regenerates Table 2: throughput and
// fairness of the testbed workloads with and without EZ-Flow.
func BenchmarkTable2TestbedThroughput(b *testing.B) {
	var last *exp.Fig4Table2Result
	for i := 0; i < b.N; i++ {
		last = exp.Fig4Table2(benchOpts(i))
	}
	b.ReportMetric(last.Get(exp.F1Alone, root.Mode80211).FlowKbps[1], "F1-80211-kbps")
	b.ReportMetric(last.Get(exp.F1Alone, root.ModeEZFlow).FlowKbps[1], "F1-ezflow-kbps")
	b.ReportMetric(last.Get(exp.ParkingLot, root.Mode80211).Fairness, "FI-80211")
	b.ReportMetric(last.Get(exp.ParkingLot, root.ModeEZFlow).Fairness, "FI-ezflow")
}

// BenchmarkFig6Scenario1Throughput regenerates Figure 6: per-period
// throughput of the two merging flows.
func BenchmarkFig6Scenario1Throughput(b *testing.B) {
	var last *exp.ScenarioResult
	for i := 0; i < b.N; i++ {
		last = exp.Scenario1(benchOpts(i))
	}
	b.ReportMetric(last.Stats[root.Mode80211]["F1-alone-1"][1].MeanKbps, "F1-80211-kbps")
	b.ReportMetric(last.Stats[root.ModeEZFlow]["F1-alone-1"][1].MeanKbps, "F1-ezflow-kbps")
	var both [2]float64
	for i, mode := range []root.Mode{root.Mode80211, root.ModeEZFlow} {
		for _, st := range last.Stats[mode]["F1+F2"] {
			both[i] += st.MeanKbps
		}
	}
	b.ReportMetric(both[0], "both-80211-kbps")
	b.ReportMetric(both[1], "both-ezflow-kbps")
}

// BenchmarkFig7Scenario1Delay regenerates Figure 7: end-to-end delay of
// the merging flows with and without EZ-Flow.
func BenchmarkFig7Scenario1Delay(b *testing.B) {
	var last *exp.ScenarioResult
	for i := 0; i < b.N; i++ {
		last = exp.Scenario1(benchOpts(i))
	}
	var delay [2]float64
	for i, mode := range []root.Mode{root.Mode80211, root.ModeEZFlow} {
		flows := last.Stats[mode]["F1+F2"]
		for _, st := range flows {
			delay[i] += st.MeanDelaySec
		}
		delay[i] /= float64(len(flows))
	}
	b.ReportMetric(delay[0], "delay-80211-s")
	b.ReportMetric(delay[1], "delay-ezflow-s")
}

// BenchmarkFig8Scenario1CW regenerates Figure 8: the contention-window
// adaptation traces — sources penalised, trunk relays at the minimum.
func BenchmarkFig8Scenario1CW(b *testing.B) {
	var last *exp.ScenarioResult
	for i := 0; i < b.N; i++ {
		last = exp.Scenario1(benchOpts(i))
	}
	b.ReportMetric(float64(last.FinalCW["N12->N10"]), "cw-source")
	b.ReportMetric(float64(last.FinalCW["N2->N1"]), "cw-relay")
	b.ReportMetric(float64(len(last.CWTraces)), "traced-queues")
}

// BenchmarkTable3Scenario2 regenerates Table 3: per-period throughput and
// fairness of the three-flow hidden-node scenario.
func BenchmarkTable3Scenario2(b *testing.B) {
	var last *exp.ScenarioResult
	for i := 0; i < b.N; i++ {
		last = exp.Scenario2(benchOpts(i))
	}
	b.ReportMetric(last.Stats[root.Mode80211]["F1+F2"][2].MeanKbps, "F2-80211-kbps")
	b.ReportMetric(last.Stats[root.ModeEZFlow]["F1+F2"][2].MeanKbps, "F2-ezflow-kbps")
	b.ReportMetric(last.Fairness[root.Mode80211]["F1+F2+F3"], "FI3-80211")
	b.ReportMetric(last.Fairness[root.ModeEZFlow]["F1+F2+F3"], "FI3-ezflow")
}

// BenchmarkFig10Scenario2Delay regenerates Figure 10: the delay series of
// the three flows.
func BenchmarkFig10Scenario2Delay(b *testing.B) {
	var last *exp.ScenarioResult
	for i := 0; i < b.N; i++ {
		last = exp.Scenario2(benchOpts(i))
	}
	b.ReportMetric(last.Stats[root.Mode80211]["F1+F2"][2].MeanDelaySec, "F2delay-80211-s")
	b.ReportMetric(last.Stats[root.ModeEZFlow]["F1+F2"][2].MeanDelaySec, "F2delay-ezflow-s")
}

// BenchmarkFig11Scenario2CW regenerates Figure 11: the contention windows
// of the first two nodes of each flow, with the hidden source throttled.
func BenchmarkFig11Scenario2CW(b *testing.B) {
	var last *exp.ScenarioResult
	for i := 0; i < b.N; i++ {
		last = exp.Scenario2(benchOpts(i))
	}
	b.ReportMetric(float64(last.FinalCW["N0->N1"]), "cw-N0")
	b.ReportMetric(float64(last.FinalCW["N10->N11"]), "cw-N10-hidden")
	b.ReportMetric(float64(last.FinalCW["N19->N20"]), "cw-N19")
}

// BenchmarkTheorem1Stability regenerates the §6 analysis: the random walk
// of Figure 12 / Table 4 with fixed windows (unstable) and with EZ-Flow
// (stable), plus the Foster drift certificate behind Theorem 1.
func BenchmarkTheorem1Stability(b *testing.B) {
	var last *exp.Theorem1Result
	for i := 0; i < b.N; i++ {
		last = exp.Theorem1(benchOpts(i))
	}
	b.ReportMetric(last.FixedMax, "fixed-max-backlog")
	b.ReportMetric(last.EZMax, "ezflow-max-backlog")
	b.ReportMetric(last.DriftByRegion["H"], "foster-drift-H")
	b.ReportMetric(last.DriftByRegion["B"], "foster-drift-B")
}

// BenchmarkHopSweep extends Figure 1 across chain lengths 2..7.
func BenchmarkHopSweep(b *testing.B) {
	var last *exp.HopSweepResult
	for i := 0; i < b.N; i++ {
		last = exp.HopSweep(benchOpts(i))
	}
	for _, hops := range last.Hops {
		b.ReportMetric(last.Throughput[root.Mode80211][hops],
			"thr"+string(rune('0'+hops))+"-80211-kbps")
	}
	b.ReportMetric(last.FirstRelayQueue[root.Mode80211][6], "q1-6hop-80211")
	b.ReportMetric(last.FirstRelayQueue[root.ModeEZFlow][6], "q1-6hop-ezflow")
}

// BenchmarkTreeDownlink exercises the §7 per-successor-queue extension.
func BenchmarkTreeDownlink(b *testing.B) {
	var last *exp.TreeResult
	for i := 0; i < b.N; i++ {
		last = exp.TreeDownlink(benchOpts(i), 3, 2)
	}
	b.ReportMetric(last.AggKbps[root.Mode80211], "agg-80211-kbps")
	b.ReportMetric(last.AggKbps[root.ModeEZFlow], "agg-ezflow-kbps")
	b.ReportMetric(last.Fairness[root.ModeEZFlow], "FI-ezflow")
}

// BenchmarkRTSCTS quantifies §5.1's case for disabling the handshake.
func BenchmarkRTSCTS(b *testing.B) {
	var last *exp.RTSCTSResult
	for i := 0; i < b.N; i++ {
		last = exp.RTSCTS(benchOpts(i))
	}
	b.ReportMetric(last.ThroughputKbps[false], "off-kbps")
	b.ReportMetric(last.ThroughputKbps[true], "on-kbps")
}

// BenchmarkBidirectional exercises the §2.3 TCP-like workload.
func BenchmarkBidirectional(b *testing.B) {
	var last *exp.BidirectionalResult
	for i := 0; i < b.N; i++ {
		last = exp.Bidirectional(benchOpts(i))
	}
	b.ReportMetric(float64(last.Delivered["802.11"]), "pkts-80211")
	b.ReportMetric(float64(last.Delivered["EZ-flow"]), "pkts-ezflow")
	b.ReportMetric(last.RelayQ["EZ-flow"], "q1-ezflow")
}
