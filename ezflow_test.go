package ezflow

import (
	"testing"

	"ezflow/internal/ctl"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/sim"
)

func quickCfg(mode Mode, dur Time) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Duration = dur
	return cfg
}

func TestChainRunProducesResults(t *testing.T) {
	sc := NewChain(4, quickCfg(Mode80211, 120*Second),
		FlowSpec{Flow: 1, RateBps: 2e6})
	res := sc.Run()
	fr := res.Flows[1]
	if fr == nil || fr.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if fr.MeanThroughputKbps <= 0 || fr.MeanDelaySec <= 0 {
		t.Fatalf("degenerate stats: %+v", fr)
	}
	if fr.P95DelaySec < fr.MeanDelaySec/10 || fr.MaxDelaySec < fr.P95DelaySec {
		t.Fatalf("delay percentiles inconsistent: mean=%v p95=%v max=%v",
			fr.MeanDelaySec, fr.P95DelaySec, fr.MaxDelaySec)
	}
	if len(res.QueueTraces) != 5 {
		t.Fatalf("queue traces for %d nodes, want 5", len(res.QueueTraces))
	}
	if res.AggKbps != fr.MeanThroughputKbps {
		t.Fatal("aggregate mismatch for single flow")
	}
	if res.Fairness != 1 {
		t.Fatalf("single-flow fairness = %v, want 1", res.Fairness)
	}
}

func TestRunTwicePanics(t *testing.T) {
	sc := NewChain(2, quickCfg(Mode80211, 30*Second), FlowSpec{Flow: 1, RateBps: 1e5})
	sc.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	sc.Run()
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		return NewChain(4, quickCfg(ModeEZFlow, 120*Second),
			FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	}
	a, b := run(), run()
	if a.Flows[1].Delivered != b.Flows[1].Delivered {
		t.Fatalf("same seed diverged: %d vs %d packets",
			a.Flows[1].Delivered, b.Flows[1].Delivered)
	}
	if a.Flows[1].MeanThroughputKbps != b.Flows[1].MeanThroughputKbps {
		t.Fatal("same seed, different throughput")
	}
	cfg := quickCfg(ModeEZFlow, 120*Second)
	cfg.Seed = 99
	c := NewChain(4, cfg, FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	if c.Flows[1].Delivered == a.Flows[1].Delivered {
		t.Log("different seeds matched exactly; suspicious but not impossible")
	}
}

func TestEZFlowStabilizesChain(t *testing.T) {
	plain := NewChain(5, quickCfg(Mode80211, 300*Second),
		FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	ezr := NewChain(5, quickCfg(ModeEZFlow, 300*Second),
		FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	if ezr.MeanQueue[1] >= plain.MeanQueue[1] {
		t.Fatalf("EZ-flow did not reduce N1 backlog: %.1f -> %.1f",
			plain.MeanQueue[1], ezr.MeanQueue[1])
	}
	if ezr.Flows[1].MeanDelaySec >= plain.Flows[1].MeanDelaySec {
		t.Fatalf("EZ-flow did not reduce delay: %.2f -> %.2f",
			plain.Flows[1].MeanDelaySec, ezr.Flows[1].MeanDelaySec)
	}
	if len(ezr.CWTraces) == 0 || len(ezr.FinalCW) == 0 {
		t.Fatal("EZ-flow run missing cw traces")
	}
}

func TestPenaltyMode(t *testing.T) {
	cfg := quickCfg(ModePenalty, 300*Second)
	cfg.Ctl.PenaltyQ = 1.0 / 64
	res := NewChain(4, cfg, FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	plain := NewChain(4, quickCfg(Mode80211, 300*Second),
		FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	if res.MeanQueue[1] >= plain.MeanQueue[1] {
		t.Fatalf("penalty scheme did not reduce backlog: %.1f vs %.1f",
			res.MeanQueue[1], plain.MeanQueue[1])
	}
}

func TestDiffQMode(t *testing.T) {
	res := NewChain(4, quickCfg(ModeDiffQ, 120*Second),
		FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	if res.OverheadBytes == 0 {
		t.Fatal("DiffQ mode reported no message-passing overhead")
	}
	if res.Flows[1].Delivered == 0 {
		t.Fatal("DiffQ mode delivered nothing")
	}
}

func TestEZFlowZeroOverhead(t *testing.T) {
	res := NewChain(4, quickCfg(ModeEZFlow, 60*Second),
		FlowSpec{Flow: 1, RateBps: 2e6}).Run()
	if res.OverheadBytes != 0 {
		t.Fatalf("EZ-flow reported %d overhead bytes; it must be zero (no message passing)",
			res.OverheadBytes)
	}
}

func TestFlowSchedules(t *testing.T) {
	sc := NewChain(3, quickCfg(Mode80211, 120*Second),
		FlowSpec{Flow: 1, RateBps: 1e5, Start: 30 * Second, Stop: 60 * Second})
	res := sc.Run()
	before := res.Flows[1].Throughput.Window(0, 25*Second)
	during := res.Flows[1].Throughput.Window(35*Second, 55*Second)
	if before.Mean() != 0 {
		t.Fatalf("traffic before the start time: %.1f kb/s", before.Mean())
	}
	if during.Mean() <= 0 {
		t.Fatal("no traffic during the active window")
	}
}

func TestWindowHelpers(t *testing.T) {
	sc := NewChain(3, quickCfg(Mode80211, 120*Second),
		FlowSpec{Flow: 1, RateBps: 2e6})
	res := sc.Run()
	m, s := res.FlowWindowKbps(1, 0, 120*Second)
	if m <= 0 || s < 0 {
		t.Fatalf("window stats: %v ± %v", m, s)
	}
	if d := res.FlowWindowDelay(1, 0, 120*Second); d <= 0 {
		t.Fatalf("window delay: %v", d)
	}
	if fi := res.FairnessWindow(0, 120*Second, 1); fi != 1 {
		t.Fatalf("single-flow window FI = %v", fi)
	}
	if m, _ := res.FlowWindowKbps(42, 0, Second); m != 0 {
		t.Fatal("unknown flow window not zero")
	}
	if d := res.FlowWindowDelay(42, 0, Second); d != 0 {
		t.Fatal("unknown flow delay not zero")
	}
}

// TestQueueSamplingAllocs pins where queue traces allocate: wiring
// allocates no sample storage, the first tick allocates room for every
// sample of the run, and no later tick allocates.
func TestQueueSamplingAllocs(t *testing.T) {
	cfg := quickCfg(Mode80211, 120*Second)
	sc := NewScenario(cfg, func(eng *sim.Engine) *mesh.Mesh {
		m := mesh.New(eng, cfg.PHY, cfg.MAC)
		m.AddNode(0, phy.Position{X: 0})
		m.AddNode(1, phy.Position{X: 200})
		return m
	})
	s := sc.QueueTraces[1]
	if s.Points != nil {
		t.Fatal("wiring allocated sample storage")
	}
	want := int(cfg.Duration/queueSample) + 1
	sc.Eng.Run(queueSample)
	if len(s.Points) != 1 || cap(s.Points) != want {
		t.Fatalf("after the first tick: %d samples, capacity %d; want 1, %d", len(s.Points), cap(s.Points), want)
	}
	if avg := testing.AllocsPerRun(50, func() {
		sc.Eng.Run(sc.Eng.Now() + queueSample)
	}); avg != 0 {
		t.Fatalf("queue sampling allocates %.1f objects per tick, want 0", avg)
	}
	res := sc.Run()
	if got := res.QueueTraces[1]; got != s || len(s.Points) != 120 || cap(s.Points) != want {
		t.Fatalf("whole run: %d samples, capacity %d; want 120, %d in the same series", len(s.Points), cap(s.Points), want)
	}
}

// TestQueueSampling pins what queue traces hold: one sample per node per
// queueSample period, taken at the period multiples, in the very series
// that Run hands to Result.
func TestQueueSampling(t *testing.T) {
	cfg := quickCfg(Mode80211, 10*Second)
	sc := NewScenario(cfg, func(eng *sim.Engine) *mesh.Mesh {
		m := mesh.New(eng, cfg.PHY, cfg.MAC)
		m.AddNode(0, phy.Position{X: 0})
		m.AddNode(1, phy.Position{X: 200})
		return m
	})
	traces := sc.QueueTraces
	res := sc.Run()
	if len(res.QueueTraces) != 2 {
		t.Fatalf("%d queue traces, want one per node", len(res.QueueTraces))
	}
	for n, s := range res.QueueTraces {
		if s != traces[n] {
			t.Fatalf("%v: Result holds another series than the scenario sampled into", n)
		}
		if s.Len() != 10 {
			t.Fatalf("%v: %d samples, want 10", n, s.Len())
		}
		for i, p := range s.Points {
			if p.T != Time(i+1)*queueSample {
				t.Fatalf("%v: sample %d at %v, want %v", n, i, p.T, Time(i+1)*queueSample)
			}
		}
	}
}

func TestCustomScenarioBuilder(t *testing.T) {
	cfg := quickCfg(Mode80211, 60*Second)
	sc := NewScenario(cfg, func(eng *sim.Engine) *mesh.Mesh {
		m := mesh.New(eng, cfg.PHY, cfg.MAC)
		m.AddNode(0, phy.Position{X: 0})
		m.AddNode(1, phy.Position{X: 200})
		m.AddNode(2, phy.Position{X: 400})
		m.SetRoute(7, []NodeID{0, 1, 2})
		return m
	}, FlowSpec{Flow: 7, RateBps: 5e5})
	res := sc.Run()
	if res.Flows[7].Delivered == 0 {
		t.Fatal("custom scenario delivered nothing")
	}
}

func TestPoissonFlow(t *testing.T) {
	sc := NewChain(2, quickCfg(Mode80211, 120*Second),
		FlowSpec{Flow: 1, RateBps: 1e5, Poisson: true})
	res := sc.Run()
	if res.Flows[1].Delivered == 0 {
		t.Fatal("poisson flow delivered nothing")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Mode80211: "802.11", ModeEZFlow: "EZ-flow",
		ModePenalty: "penalty-q", ModeDiffQ: "DiffQ", Mode(99): "unknown",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PHY.TxRange != 250 || cfg.PHY.CSRange != 550 {
		t.Error("phy defaults")
	}
	if cfg.MAC.QueueCap != 50 {
		t.Error("mac queue default")
	}
	if cfg.Ctl.EZ.CAA.BMin != 0.05 || cfg.Ctl.EZ.CAA.BMax != 20 {
		t.Error("CAA thresholds")
	}
}

// TestAdaptsToLinkDegradation covers the §2.2 requirement that EZ-Flow
// adapts to environment changes: halfway through the run the second link
// of the chain degrades sharply (a new bottleneck appears), and EZ-Flow
// must re-adapt so that the relay feeding it does not stay saturated.
func TestAdaptsToLinkDegradation(t *testing.T) {
	run := func(mode Mode) *Result {
		cfg := quickCfg(mode, 900*Second)
		sc := NewChain(4, cfg, FlowSpec{Flow: 1, RateBps: 2e6})
		// Degrade l1 (N1->N2) at t = 300 s.
		sc.Eng.Schedule(300*Second, func() {
			sc.Mesh.Ch.SetLinkLoss(1, 2, 0.45)
		})
		return sc.Run()
	}
	plain := run(Mode80211)
	with := run(ModeEZFlow)
	// After the change, N1 feeds a much slower link. Compare its mean
	// backlog over the post-change window.
	window := func(r *Result) float64 {
		return r.QueueTraces[1].Window(500*Second, 900*Second).Mean()
	}
	pq, wq := window(plain), window(with)
	if wq >= pq {
		t.Fatalf("EZ-flow did not re-adapt to the degraded link: N1 backlog %.1f vs %.1f",
			wq, pq)
	}
	// And the source must have been throttled harder than before the
	// degradation (cw above the pre-change steady value of 64).
	if cw := with.FinalCW["N0->N1"]; cw < 64 {
		t.Fatalf("source cw %d after degradation; expected a stronger penalty", cw)
	}
}

// TestTreeScenarioAPI exercises the public NewTree constructor.
func TestTreeScenarioAPI(t *testing.T) {
	cfg := quickCfg(ModeEZFlow, 120*Second)
	sc := NewTree(2, 2, cfg)
	if len(sc.Mesh.Flows()) != 4 {
		t.Fatalf("tree flows = %d, want 4", len(sc.Mesh.Flows()))
	}
	res := sc.Run()
	if res.AggKbps <= 0 {
		t.Fatal("tree delivered nothing")
	}
	if len(sc.Ctl.(*ctl.Deployment).Relays) == 0 {
		t.Fatal("no controllers on the tree")
	}
}
