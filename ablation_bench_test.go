// Ablation benchmarks for the design choices DESIGN.md calls out: the
// passive BOE vs message passing, the next-hop buffer signal vs
// differential backlog, the 50-sample averaging window, the bmin/bmax
// thresholds, sniff-loss robustness, and the hardware CWmin cap.
package ezflow_test

import (
	"fmt"
	"testing"

	root "ezflow"
)

// ablationRun executes a 5-hop saturated chain and returns headline
// metrics. The 5-hop chain is used because its instability under plain
// 802.11 is strong, making controller differences visible quickly.
func ablationRun(cfg root.Config) (kbps, delay, q1 float64, overhead uint64) {
	cfg.Duration = 600 * root.Second
	sc := root.NewChain(5, cfg, root.FlowSpec{Flow: 1, RateBps: 2e6})
	res := sc.Run()
	fr := res.Flows[1]
	return fr.MeanThroughputKbps, fr.MeanDelaySec, res.MeanQueue[1], res.OverheadBytes
}

// BenchmarkAblationMessagePassing compares EZ-Flow's passive estimation
// against the DiffQ-style controller that piggybacks queue sizes on data
// frames: similar stabilisation, but only one of them costs header bytes.
func BenchmarkAblationMessagePassing(b *testing.B) {
	var ezK, dqK, ezD, dqD float64
	var dqOver uint64
	for i := 0; i < b.N; i++ {
		cfg := root.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Mode = root.ModeEZFlow
		ezK, ezD, _, _ = ablationRun(cfg)
		cfg2 := root.DefaultConfig()
		cfg2.Seed = int64(i + 1)
		cfg2.Mode = root.ModeDiffQ
		dqK, dqD, _, dqOver = ablationRun(cfg2)
	}
	b.ReportMetric(ezK, "ezflow-kbps")
	b.ReportMetric(dqK, "diffq-kbps")
	b.ReportMetric(ezD, "ezflow-delay-s")
	b.ReportMetric(dqD, "diffq-delay-s")
	b.ReportMetric(float64(dqOver), "diffq-overhead-B")
	b.ReportMetric(0, "ezflow-overhead-B")
}

// BenchmarkAblationSignal compares the next-hop buffer signal (EZ-Flow)
// against the static penalty scheme of [9] that EZ-Flow is meant to
// rediscover without hand tuning.
func BenchmarkAblationSignal(b *testing.B) {
	var ezQ, pnQ, plQ float64
	for i := 0; i < b.N; i++ {
		cfg := root.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Mode = root.ModeEZFlow
		_, _, ezQ, _ = ablationRun(cfg)
		cfg.Mode = root.ModePenalty
		_, _, pnQ, _ = ablationRun(cfg)
		cfg.Mode = root.Mode80211
		_, _, plQ, _ = ablationRun(cfg)
	}
	b.ReportMetric(ezQ, "ezflow-q1-pkts")
	b.ReportMetric(pnQ, "penalty-q1-pkts")
	b.ReportMetric(plQ, "80211-q1-pkts")
}

// BenchmarkAblationWindow sweeps the CAA averaging window around the
// paper's 50 samples.
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{10, 25, 50, 100, 200} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var kbps, delay float64
			for i := 0; i < b.N; i++ {
				cfg := root.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.Mode = root.ModeEZFlow
				cfg.Ctl.EZ.CAA.Window = window
				kbps, delay, _, _ = ablationRun(cfg)
			}
			b.ReportMetric(kbps, "kbps")
			b.ReportMetric(delay, "delay-s")
		})
	}
}

// BenchmarkAblationThresholds sweeps bmax (bmin fixed at the paper's 0.05,
// which §3.3 says must stay very small).
func BenchmarkAblationThresholds(b *testing.B) {
	for _, bmax := range []float64{5, 10, 20, 35} {
		b.Run(fmt.Sprintf("bmax=%v", bmax), func(b *testing.B) {
			var kbps, q1 float64
			for i := 0; i < b.N; i++ {
				cfg := root.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.Mode = root.ModeEZFlow
				cfg.Ctl.EZ.CAA.BMax = bmax
				kbps, _, q1, _ = ablationRun(cfg)
			}
			b.ReportMetric(kbps, "kbps")
			b.ReportMetric(q1, "q1-pkts")
		})
	}
}

// BenchmarkAblationSniffLoss degrades the BOE's monitor mode: §3.2 claims
// EZ-Flow keeps working when most forwarded packets are not overheard.
func BenchmarkAblationSniffLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.5, 0.9, 0.99} {
		b.Run(fmt.Sprintf("loss=%v", loss), func(b *testing.B) {
			var kbps, q1 float64
			for i := 0; i < b.N; i++ {
				cfg := root.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.Mode = root.ModeEZFlow
				cfg.Ctl.EZ.SniffLoss = loss
				kbps, _, q1, _ = ablationRun(cfg)
			}
			b.ReportMetric(kbps, "kbps")
			b.ReportMetric(q1, "q1-pkts")
		})
	}
}

// BenchmarkAblationCap compares the testbed's 2^10 hardware CWmin cap
// against the unconstrained 2^15 of the simulations (§4.3 attributes the
// residual buffer at N1 to this cap).
func BenchmarkAblationCap(b *testing.B) {
	for _, cap := range []int{1 << 10, 0} {
		name := "cap=1024"
		if cap == 0 {
			name = "cap=none"
		}
		b.Run(name, func(b *testing.B) {
			var kbps, q1 float64
			for i := 0; i < b.N; i++ {
				cfg := root.DefaultConfig()
				cfg.Seed = int64(i + 1)
				cfg.Mode = root.ModeEZFlow
				cfg.MAC.HardwareCWCap = cap
				kbps, _, q1, _ = ablationRun(cfg)
			}
			b.ReportMetric(kbps, "kbps")
			b.ReportMetric(q1, "q1-pkts")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: simulated
// seconds per wall second on the 4-hop saturated chain.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := root.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Duration = 60 * root.Second
		sc := root.NewChain(4, cfg, root.FlowSpec{Flow: 1, RateBps: 2e6})
		sc.Run()
	}
	b.ReportMetric(60*float64(b.N)/b.Elapsed().Seconds(), "sim-s/wall-s")
}
