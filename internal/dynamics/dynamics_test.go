package dynamics_test

import (
	"math"
	"testing"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// chainScenario builds a short chain with one moderate-rate flow, small
// enough that every test runs in well under a second.
func chainScenario(t *testing.T, hops int, mode ezflow.Mode, durSec float64) *ezflow.Scenario {
	t.Helper()
	cfg := ezflow.DefaultConfig()
	cfg.Mode = mode
	cfg.Duration = sim.FromSeconds(durSec)
	cfg.Bin = 1 * ezflow.Second
	return ezflow.NewChain(hops, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 4e5})
}

func TestLinkFlapStallsAndRecovers(t *testing.T) {
	sc := chainScenario(t, 2, ezflow.Mode80211, 30)
	script := &dynamics.Script{Events: dynamics.Flap(1, 2, 10*ezflow.Second, 20*ezflow.Second, false)}
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	res := sc.Run()

	if len(res.DynamicsLog) != 2 {
		t.Fatalf("dynamics log has %d entries, want 2: %v", len(res.DynamicsLog), res.DynamicsLog)
	}
	if res.Stability == nil {
		t.Fatal("no stability metrics despite a fault")
	}
	if got := res.Stability.FaultAt; got != 10*ezflow.Second {
		t.Errorf("FaultAt = %v, want 10s", got)
	}

	// Per-second bins: traffic flows before the fault, stalls during the
	// outage (after the in-flight head drains), and resumes after.
	var before, during, after float64
	for _, p := range res.Flows[1].Throughput.Points {
		sec := p.T.Seconds()
		switch {
		case sec <= 10:
			before += p.V
		case sec > 12 && sec <= 20: // skip 2 s of queue drain at the break
			during += p.V
		case sec > 22:
			after += p.V
		}
	}
	if before <= 0 {
		t.Error("no pre-fault throughput")
	}
	if during > 0 {
		t.Errorf("delivered %f kb/s-bins across a severed link", during)
	}
	if after <= 0 {
		t.Error("no post-restoration throughput: link did not come back")
	}
	if res.Stability.RecoverySec[1] < 0 {
		t.Error("flow marked unrecovered after a transient flap")
	}
}

func TestNodeChurnDropVsDrain(t *testing.T) {
	halted := map[bool]int{}
	for _, drop := range []bool{false, true} {
		sc := chainScenario(t, 3, ezflow.Mode80211, 20)
		script := &dynamics.Script{Events: dynamics.Churn(1, 8*ezflow.Second, 12*ezflow.Second, drop, false)}
		if err := sc.AddDynamics(script); err != nil {
			t.Fatal(err)
		}
		n := 0
		sc.Mesh.Node(1).MAC.AddDropHook(func(p *pkt.Packet, r mac.DropReason) {
			if r == mac.DropHalted {
				n++
			}
		})
		res := sc.Run()
		halted[drop] = n
		if res.Flows[1].Delivered == 0 {
			t.Errorf("drop=%v: nothing delivered at all", drop)
		}
		if down := sc.Mesh.Node(1).MAC.Down(); down {
			t.Errorf("drop=%v: relay still halted at the end of the run", drop)
		}
	}
	if halted[false] != 0 {
		t.Errorf("drain churn discarded %d packets", halted[false])
	}
	if halted[true] == 0 {
		t.Error("drop churn discarded nothing despite a backlogged relay")
	}
}

// TestRapidChurnMidFlight hammers a saturated relay with sub-frame-time
// halt/restart pairs. Restarting while the node's abandoned frame is
// still on the air must defer channel access to the flight's end (the
// radio is half-duplex) instead of panicking phy with a second
// transmission from the same source.
func TestRapidChurnMidFlight(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 15 * ezflow.Second
	sc := ezflow.NewChain(3, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	// Pairs are spaced wider than one ~8.7 ms frame flight so the relay
	// is transmitting again by the next halt, and each restart follows
	// its halt within the same flight.
	script := &dynamics.Script{}
	for i := 0; i < 40; i++ {
		at := 5*ezflow.Second + ezflow.Time(i)*9773*sim.Microsecond
		script.Events = append(script.Events,
			dynamics.Churn(1, at, at+41*sim.Microsecond, i%2 == 0, false)...)
	}
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	res := sc.Run() // must not panic
	if res.Flows[1].Delivered == 0 {
		t.Error("nothing delivered through the churn storm")
	}
}

func TestEarlyFaultStillGetsBaseline(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 30 * ezflow.Second
	cfg.WarmupSkip = 15 * ezflow.Second
	cfg.Bin = 1 * ezflow.Second
	sc := ezflow.NewChain(2, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 4e5})
	script := &dynamics.Script{Events: dynamics.Flap(1, 2, 10*ezflow.Second, 14*ezflow.Second, false)}
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	res := sc.Run()
	st := res.Stability
	// The fault predates the warmup window's end; the baseline must fall
	// back to the pre-fault traffic instead of silently reporting the
	// flow as having nothing to recover.
	if _, ok := st.RecoverySec[1]; !ok {
		t.Fatal("flow omitted from recovery metrics despite pre-fault traffic")
	}
	if st.PreFaultKbps[1] <= 0 {
		t.Errorf("no pre-fault baseline: %v", st.PreFaultKbps)
	}
}

func TestRerouteRepairsPath(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Duration = 5 * ezflow.Second
	sc := ezflow.NewGrid(2, 2, cfg,
		ezflow.FlowSpec{Flow: 1, RateBps: 4e5},
		ezflow.FlowSpec{Flow: 2, RateBps: 4e5})
	want := []ezflow.NodeID{3, 2, 0}
	if got := sc.Mesh.Route(1); !equalPath(got, want) {
		t.Fatalf("pre-fault route %v, want %v", got, want)
	}
	ctlsBefore := len(sc.Ctl.(*ctl.Deployment).Relays)

	script := (&dynamics.Script{}).Add(dynamics.Event{
		At: 1 * ezflow.Second, Kind: dynamics.LinkDown, A: 2, B: 0, Reroute: true,
	})
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	sc.Run()

	// BFS repair: N3 -> N1 -> N0 is the only surviving 2-hop path.
	if got := sc.Mesh.Route(1); !equalPath(got, []ezflow.NodeID{3, 1, 0}) {
		t.Errorf("post-fault route %v, want [3 1 0]", got)
	}
	// The repair created a queue toward the new relay N1; the EZ-Flow
	// deployment must have extended itself over it.
	if got := len(sc.Ctl.(*ctl.Deployment).Relays); got <= ctlsBefore {
		t.Errorf("deployment did not extend after reroute: %d -> %d controllers", ctlsBefore, got)
	}
	// Stability metrics must keep covering the abandoned relay N2 — it is
	// the node that held the fault backlog — alongside the new relay N1.
	seen := sc.Dyn.RelaysSeen()
	if !seen[2] || !seen[1] {
		t.Errorf("relays seen = %v, want both the pre- and post-repair relay", seen)
	}
}

func TestRerouteKeepsBrokenRouteWhenNoPath(t *testing.T) {
	sc := chainScenario(t, 2, ezflow.Mode80211, 5)
	script := (&dynamics.Script{}).Add(dynamics.Event{
		At: 1 * ezflow.Second, Kind: dynamics.LinkDown, A: 0, B: 1, Reroute: true,
	})
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	sc.Run()
	if got := sc.Mesh.Route(1); !equalPath(got, []ezflow.NodeID{0, 1, 2}) {
		t.Errorf("route changed despite no alternative existing: %v", got)
	}
}

func TestRegionLossAndRestore(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 5 * ezflow.Second
	sc := ezflow.NewTestbed(cfg, ezflow.FlowSpec{Flow: 1, RateBps: 4e5})
	orig := sc.Mesh.Ch.LinkLoss(2, 3) // the calibrated bottleneck link

	script := (&dynamics.Script{}).
		Add(dynamics.Event{At: 1 * ezflow.Second, Kind: dynamics.RegionLoss,
			Center: phy.Position{X: 2 * 200, Y: 0}, Radius: 250, Loss: 0.9}).
		Add(dynamics.Event{At: 3 * ezflow.Second, Kind: dynamics.RegionRestore})
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}

	// Step to just past the degradation and check the override applied.
	sc.Eng.Run(2 * ezflow.Second)
	if got := sc.Mesh.Ch.LinkLoss(2, 3); got != 0.9 {
		t.Errorf("during region fade: loss(2,3) = %g, want 0.9", got)
	}
	sc.Eng.Run(4 * ezflow.Second)
	if got := sc.Mesh.Ch.LinkLoss(2, 3); got != orig {
		t.Errorf("after restore: loss(2,3) = %g, want calibrated %g", got, orig)
	}
	// A link outside the 250 m region must be untouched throughout.
	if got := sc.Mesh.Ch.LinkLoss(5, 6); got != 0.06 {
		t.Errorf("far link loss(5,6) = %g, want 0.06", got)
	}
}

func TestTrafficEvents(t *testing.T) {
	sc := chainScenario(t, 2, ezflow.Mode80211, 20)
	script := (&dynamics.Script{}).
		Add(dynamics.Event{At: 5 * ezflow.Second, Kind: dynamics.FlowStop, Flow: 1}).
		Add(dynamics.Event{At: 10 * ezflow.Second, Kind: dynamics.FlowRate, Flow: 1, RateBps: 8e5}).
		Add(dynamics.Event{At: 10 * ezflow.Second, Kind: dynamics.FlowStart, Flow: 1})
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	res := sc.Run()
	// 5 s at the flow's 4e5 bit/s, then 10 s at the new 8e5 bit/s.
	want := (5*4e5 + 10*8e5) / float64(8*pkt.DefaultPayloadBytes)
	if got := float64(sc.Sources[1].Generated); math.Abs(got-want) > 2 {
		t.Errorf("source generated %g packets, want %.1f (rate 8e5 after the flow-rate event)", got, want)
	}
	var off, onAgain float64
	for _, p := range res.Flows[1].Throughput.Points {
		sec := p.T.Seconds()
		switch {
		case sec > 7 && sec <= 10:
			off += p.V
		case sec > 11:
			onAgain += p.V
		}
	}
	if off > 0 {
		t.Errorf("throughput %f while the source was stopped", off)
	}
	if onAgain <= 0 {
		t.Error("no throughput after flow-start")
	}
}

func TestAttachValidation(t *testing.T) {
	bad := []dynamics.Event{
		{Kind: dynamics.LinkDown, A: 0, B: 99},
		{Kind: dynamics.LinkDown, A: 1, B: 1},
		{Kind: dynamics.NodeDown, Node: 42},
		{Kind: dynamics.LinkLoss, A: 0, B: 1, Loss: 1.5},
		{Kind: dynamics.RegionLoss, Loss: 0.5, Radius: -1},
		{Kind: dynamics.FlowStop, Flow: 9},
		{Kind: dynamics.FlowRate, Flow: 1, RateBps: -1},
		{Kind: dynamics.LinkLoss, A: 0, B: 1, Loss: 0.5, Reroute: true},
		{Kind: dynamics.Kind(99)},
	}
	for _, ev := range bad {
		sc := chainScenario(t, 2, ezflow.Mode80211, 1)
		err := sc.AddDynamics((&dynamics.Script{}).Add(ev))
		if err == nil {
			t.Errorf("event %+v was accepted", ev)
		}
	}
	// Validation is all-or-nothing: a bad event in a batch schedules none.
	sc := chainScenario(t, 2, ezflow.Mode80211, 1)
	err := sc.AddDynamics((&dynamics.Script{}).
		Add(dynamics.Event{At: 0, Kind: dynamics.FlowStop, Flow: 1}).
		Add(dynamics.Event{Kind: dynamics.NodeDown, Node: 42}))
	if err == nil {
		t.Fatal("batch with a bad event was accepted")
	}
	res := sc.Run()
	if len(res.DynamicsLog) != 0 {
		t.Errorf("rejected batch still applied events: %v", res.DynamicsLog)
	}
}

func TestHelpersPickMidpoints(t *testing.T) {
	sc := chainScenario(t, 4, ezflow.Mode80211, 1)
	a, b := dynamics.MiddleLink(sc.Mesh, 1)
	if a != 1 || b != 2 {
		t.Errorf("MiddleLink = %v->%v, want 1->2", a, b)
	}
	if n := dynamics.MiddleRelay(sc.Mesh, 1); n != 2 {
		t.Errorf("MiddleRelay = %v, want 2", n)
	}
}

func equalPath(a, b []ezflow.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
