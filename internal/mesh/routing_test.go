package mesh

import (
	"fmt"
	"strings"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// strategyOf pulls a default-configured strategy out of the registry.
func strategyOf(t *testing.T, name string) routing.Strategy {
	t.Helper()
	info, ok := routing.Strategies.ByName(name)
	if !ok {
		t.Fatalf("strategy %q not registered", name)
	}
	return info.New()
}

// TestStrategyLazyDefault checks an untouched mesh routes with the
// registry default and SetStrategy(nil) restores it.
func TestStrategyLazyDefault(t *testing.T) {
	m := newChain(t, 3)
	if got := m.Strategy().Name(); got != routing.DefaultName {
		t.Errorf("default strategy = %q, want %q", got, routing.DefaultName)
	}
	m.SetStrategy(strategyOf(t, "etx"))
	if got := m.Strategy().Name(); got != "etx" {
		t.Errorf("after SetStrategy: %q, want etx", got)
	}
	m.SetStrategy(nil)
	if got := m.Strategy().Name(); got != routing.DefaultName {
		t.Errorf("after SetStrategy(nil): %q, want %q", got, routing.DefaultName)
	}
}

// TestRerouteFlowDelegates pins the repair path to the active strategy:
// the same severed-link repair lands on the strategy's choice, for every
// registered strategy, and BFS reproduces the legacy [3 1 0] repair.
func TestRerouteFlowDelegates(t *testing.T) {
	for _, name := range routing.Strategies.Names() {
		eng := sim.NewEngine(1)
		m := Grid(eng, 2, 2, phy.DefaultConfig(), mac.DefaultConfig())
		m.SetStrategy(strategyOf(t, name))
		// Sever 2->0 (both directions), the hop flow 1's builder route uses.
		usable := func(a, b pkt.NodeID) bool {
			if (a == 2 && b == 0) || (a == 0 && b == 2) {
				return false
			}
			return m.Ch.InTxRange(a, b)
		}
		if !m.RerouteFlow(1, usable) {
			t.Errorf("%s: repair found no path on a connected grid", name)
			continue
		}
		got := m.Route(1)
		if fmt.Sprint(got) != fmt.Sprint([]pkt.NodeID{3, 1, 0}) {
			t.Errorf("%s: repaired route = %v, want [3 1 0]", name, got)
		}
		if err := m.CheckRoutes(); err != nil {
			t.Errorf("%s: repaired mesh invalid: %v", name, err)
		}
	}
}

// TestRerouteFailureCounted covers the no-path contract: the route stays,
// the call reports false, and the failure is counted for observability.
func TestRerouteFailureCounted(t *testing.T) {
	m := newChain(t, 2)
	before := append([]pkt.NodeID(nil), m.Route(1)...)
	nothing := func(a, b pkt.NodeID) bool { return false }
	if m.RerouteFlow(1, nothing) {
		t.Error("reroute over an empty graph reported success")
	}
	if got := m.RerouteFailures(); got != 1 {
		t.Errorf("RerouteFailures = %d, want 1", got)
	}
	if fmt.Sprint(m.Route(1)) != fmt.Sprint(before) {
		t.Errorf("failed reroute changed the route: %v", m.Route(1))
	}
	// An unknown flow is a no-op, not a counted failure.
	if m.RerouteFlow(99, nothing) {
		t.Error("reroute of an uninstalled flow reported success")
	}
	if got := m.RerouteFailures(); got != 1 {
		t.Errorf("RerouteFailures after unknown flow = %d, want 1", got)
	}
}

// TestRecomputeRoutes covers wiring-time recomputation: a quality-aware
// strategy replaces the builder route when the calibration warrants it,
// and a disconnected flow surfaces as an error naming it.
func TestRecomputeRoutes(t *testing.T) {
	// Line 0-1-2 plus a direct marginal 0-2 shortcut: nodes at 0, 120, 240
	// with 250 m range, so 0-2 is in range but near the limit.
	eng := sim.NewEngine(1)
	m := New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	m.AddNode(0, phy.Position{X: 0})
	m.AddNode(1, phy.Position{X: 120})
	m.AddNode(2, phy.Position{X: 240})
	m.SetRoute(1, []pkt.NodeID{2, 0})
	m.Ch.SetLinkLoss(0, 2, 0.6)
	m.Ch.SetLinkLoss(2, 0, 0.6) // direct ETX 6.25 > 2 clean hops

	m.SetStrategy(strategyOf(t, "etx"))
	if err := m.RecomputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if got := m.Route(1); fmt.Sprint(got) != fmt.Sprint([]pkt.NodeID{2, 1, 0}) {
		t.Errorf("etx recompute = %v, want [2 1 0]", got)
	}

	// BFS restores the minimum-hop direct route.
	m.SetStrategy(strategyOf(t, "bfs"))
	if err := m.RecomputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if got := m.Route(1); fmt.Sprint(got) != fmt.Sprint([]pkt.NodeID{2, 0}) {
		t.Errorf("bfs recompute = %v, want [2 0]", got)
	}

	// A flow whose endpoints cannot reach each other errors, naming it.
	m2 := New(sim.NewEngine(1), phy.DefaultConfig(), mac.DefaultConfig())
	m2.AddNode(0, phy.Position{X: 0})
	m2.AddNode(1, phy.Position{X: 200})
	m2.AddNode(7, phy.Position{X: 5000})
	m2.SetRoute(3, []pkt.NodeID{0, 1})
	m2.routes[3] = []pkt.NodeID{0, 7} // bypass SetRoute to fake a stale route
	err := m2.RecomputeRoutes()
	if err == nil || !strings.Contains(err.Error(), "flow F3") {
		t.Errorf("disconnected recompute: err = %v, want one naming flow F3", err)
	}
}

// TestCheckRoutesVsValidate pins the unified contract: CheckRoutes
// returns the error, ValidateRoutes panics with the same message, and
// both are silent on a valid mesh.
func TestCheckRoutesVsValidate(t *testing.T) {
	m := newChain(t, 3)
	if err := m.CheckRoutes(); err != nil {
		t.Fatalf("valid chain: CheckRoutes = %v", err)
	}
	m.ValidateRoutes() // must not panic

	// Fake a repair that left an out-of-range hop in place.
	m.routes[1] = []pkt.NodeID{0, 3}
	err := m.CheckRoutes()
	if err == nil || !strings.Contains(err.Error(), "exceeds transmission range") {
		t.Fatalf("CheckRoutes = %v, want range error", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ValidateRoutes did not panic on the broken route")
		}
		if fmt.Sprint(r) != err.Error() {
			t.Errorf("panic %q differs from CheckRoutes error %q", r, err)
		}
	}()
	m.ValidateRoutes()
}

// TestApplyEdgeLoss pins the loss model's shape: clean below half range,
// quadratic ramp above it, symmetric, and idempotent.
func TestApplyEdgeLoss(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	r := phy.DefaultConfig().TxRange // 250
	m.AddNode(0, phy.Position{X: 0})
	m.AddNode(1, phy.Position{X: 0.4 * r})   // below half range: clean
	m.AddNode(2, phy.Position{X: -0.75 * r}) // frac (0.75-0.5)/0.5 = 0.5
	m.ApplyEdgeLoss(0.4)

	if got := m.Ch.LinkLoss(0, 1); got != 0 {
		t.Errorf("short link loss = %g, want 0", got)
	}
	want := 0.4 * 0.5 * 0.5
	if got := m.Ch.LinkLoss(0, 2); !almost(got, want) {
		t.Errorf("marginal link loss = %g, want %g", got, want)
	}
	if got := m.Ch.LinkLoss(2, 0); !almost(got, want) {
		t.Errorf("reverse loss = %g, want symmetric %g", got, want)
	}
	m.ApplyEdgeLoss(0.4) // reapplying recalibrates to the same values
	if got := m.Ch.LinkLoss(0, 2); !almost(got, want) {
		t.Errorf("after reapply: %g, want %g", got, want)
	}
	m.ApplyEdgeLoss(0) // zero ceiling is a no-op, not an erase
	if got := m.Ch.LinkLoss(0, 2); !almost(got, want) {
		t.Errorf("ApplyEdgeLoss(0) changed losses: %g", got)
	}
}

func almost(got, want float64) bool {
	d := got - want
	return d < 1e-12 && d > -1e-12
}

// TestRandomDiskLossyDeterminism checks the lossy builder is a pure
// function of its arguments and that edgeLoss 0 calibrates no link.
func TestRandomDiskLossyDeterminism(t *testing.T) {
	build := func(edge float64) *Mesh {
		return RandomDiskLossy(sim.NewEngine(1), 20, 0, 7, edge, phy.DefaultConfig(), mac.DefaultConfig())
	}
	a, b := build(0.5), build(0.5)
	if fingerprint(a) != fingerprint(b) {
		t.Error("same (n, radius, seed, edgeLoss) produced different meshes")
	}
	// The calibration touched at least one marginal link, and none
	// without edge loss.
	plain := build(0)
	var lossy int
	ids := a.Ch.NodeIDs()
	for _, x := range ids {
		for _, y := range ids {
			if x != y && a.Ch.LinkLoss(x, y) > 0 {
				lossy++
			}
			if plain.Ch.LinkLoss(x, y) != 0 {
				t.Errorf("edgeLoss 0 left loss %g on link %v->%v", plain.Ch.LinkLoss(x, y), x, y)
			}
		}
	}
	if lossy == 0 {
		t.Error("no link received edge loss on a 20-node disk")
	}
}
