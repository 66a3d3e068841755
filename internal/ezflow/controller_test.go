package ezflow_test

// These tests deploy EZ-Flow the way every run does, as the "ezflow"
// controller of internal/ctl; the external test package may import ctl,
// which itself imports this package.

import (
	"testing"

	"ezflow/internal/ctl"
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// deployEZ deploys the ezflow controller over m through the registry.
func deployEZ(t testing.TB, m *mesh.Mesh, opts ez.Options) *ctl.Deployment {
	t.Helper()
	info, ok := ctl.Controllers.ByName("ezflow")
	if !ok {
		t.Fatal("ezflow not registered")
	}
	return info.Deploy(m, ctl.Options{EZ: opts}).(*ctl.Deployment)
}

// chainWithEZ builds a bare hops-hop chain under EZ-Flow.
func chainWithEZ(t testing.TB, hops int, opts ez.Options) (*sim.Engine, *mesh.Mesh, *ctl.Deployment) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, hops, phy.DefaultConfig(), mac.DefaultConfig())
	return eng, m, deployEZ(t, m, opts)
}

// relayAt returns the relay at node n watching succ, or nil.
func relayAt(dep *ctl.Deployment, n, succ pkt.NodeID) *ctl.Relay {
	for _, r := range dep.Relays {
		if r.Node == n && r.Successor == succ {
			return r
		}
	}
	return nil
}

// relaysAt returns the relays at node n.
func relaysAt(dep *ctl.Deployment, n pkt.NodeID) []*ctl.Relay {
	var rs []*ctl.Relay
	for _, r := range dep.Relays {
		if r.Node == n {
			rs = append(rs, r)
		}
	}
	return rs
}

// ezOf returns the relay's BOE/CAA pair.
func ezOf(r *ctl.Relay) *ez.Controller { return r.State.(*ez.Controller) }

func TestDeployPlacesControllers(t *testing.T) {
	_, _, dep := chainWithEZ(t, 4, ez.Options{})
	// Relays of the 4-hop chain are N1, N2, N3. Controllers watch
	// successors that relay: N0 watches N1, N1 watches N2, N2 watches N3.
	// N3's successor is the destination (never forwards), so no
	// controller there.
	if len(dep.Relays) != 3 {
		t.Fatalf("controllers = %d, want 3", len(dep.Relays))
	}
	r := relayAt(dep, 0, 1)
	if r == nil {
		t.Fatal("missing controller N0->N1")
	}
	if c := ezOf(r); c.BOE == nil || c.CAA == nil || len(c.CWTrace) != 1 {
		t.Fatalf("N0->N1 state not built: %+v", c)
	}
	if relayAt(dep, 3, 4) != nil {
		t.Fatal("controller watching the destination")
	}
	if got := len(relaysAt(dep, 1)); got != 1 {
		t.Fatalf("controllers at N1 = %d", got)
	}
}

func TestControllerEndToEnd(t *testing.T) {
	// Saturate a 5-hop chain and verify the EZ-Flow feedback loop closes:
	// estimates flow, decisions fire, the source's cw rises above the
	// relays' cw, and relay queues stay low on average.
	eng, m, dep := chainWithEZ(t, 5, ez.Options{})
	r01 := relayAt(dep, 0, 1)
	c01 := ezOf(r01)
	decisions := 0
	trace := c01.CAA.OnDecision
	c01.CAA.OnDecision = func(d ez.Decision) { decisions++; trace(d) }
	traffic.NewCBR(m, 1, 2e6, 1028).Start()
	eng.Run(600 * sim.Second)

	if c01.BOE.Estimates == 0 {
		t.Fatal("BOE produced no estimates")
	}
	if decisions == 0 {
		t.Fatal("CAA made no decisions")
	}
	cwSource := r01.Caps.Window()
	cwRelay := relayAt(dep, 2, 3).Caps.Window()
	if cwSource <= cwRelay {
		t.Fatalf("source cw %d not above relay cw %d (no penalty discovered)",
			cwSource, cwRelay)
	}
	if peak := relayAt(dep, 1, 2).Caps.Queue().PeakDepth; peak == 0 {
		t.Fatal("relay never buffered anything (no traffic flowed?)")
	}
	// The stabilisation claim: the first relay must not end the run with
	// a saturated buffer.
	if got := relayAt(dep, 1, 2).Caps.Len(); got > 45 {
		t.Fatalf("relay N1 ends the run nearly saturated: %d", got)
	}
}

func TestControllerCWTraceMonotoneTimes(t *testing.T) {
	eng, m, dep := chainWithEZ(t, 4, ez.Options{})
	traffic.NewCBR(m, 1, 2e6, 1028).Start()
	eng.Run(300 * sim.Second)
	for _, r := range dep.Relays {
		tr := ezOf(r).CWTrace
		for i := 1; i < len(tr); i++ {
			if tr[i].At < tr[i-1].At {
				t.Fatalf("cw trace times not monotone at %v", r.Node)
			}
		}
	}
}

func TestSniffLossDegradesGracefully(t *testing.T) {
	// §3.2's robustness claim: with 90% of overheard frames dropped the
	// controller still collects estimates and still stabilises, only
	// more slowly.
	estimates := func(loss float64) uint64 {
		eng, m, dep := chainWithEZ(t, 4, ez.Options{SniffLoss: loss})
		traffic.NewCBR(m, 1, 2e6, 1028).Start()
		eng.Run(600 * sim.Second)
		return ezOf(relayAt(dep, 0, 1)).BOE.Estimates
	}
	lossy := estimates(0.9)
	if lossy == 0 {
		t.Fatal("no estimates at all under 90% sniff loss")
	}
	if lossy >= estimates(0) {
		t.Fatal("sniff loss did not reduce the estimate rate")
	}
}

func TestDeployMultiFlowSharedRelay(t *testing.T) {
	// Scenario-1-style merge: the junction node's queue gets exactly one
	// controller per successor, and source nodes of both flows get one.
	eng := sim.NewEngine(1)
	m := mesh.Scenario1(eng, phy.DefaultConfig(), mac.DefaultConfig())
	dep := deployEZ(t, m, ez.Options{})
	// Each relay along the shared trunk N4->N3->N2->N1 watches one
	// successor; N1's successor N0 is the gateway destination (no
	// controller).
	for _, nd := range []struct {
		node, succ pkt.NodeID
	}{{4, 3}, {3, 2}, {2, 1}, {12, 10}, {11, 9}, {10, 8}, {9, 7}} {
		if relayAt(dep, nd.node, nd.succ) == nil {
			t.Errorf("missing controller %v->%v", nd.node, nd.succ)
		}
	}
	if relayAt(dep, 1, 0) != nil {
		t.Error("controller toward the gateway destination")
	}
}

// TestAttachSingleQueue checks what Attach builds for one relay queue: a
// BOE watching the queue's next hop, a CAA driving its CWmin, and the
// initial CW trace point.
func TestAttachSingleQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, 3, phy.DefaultConfig(), mac.DefaultConfig())
	r := relayAt(deployEZ(t, m, ez.Options{}), 0, 1)
	if r == nil || r.Caps.Queue() != m.Node(0).SourceQueue(1) {
		t.Fatal("N0's source queue toward N1 not attached")
	}
	c := ezOf(r)
	if c.BOE == nil || c.CAA == nil {
		t.Fatal("modules not wired")
	}
	if c.BOE.Successor() != 1 {
		t.Fatalf("BOE watches %v, want N1", c.BOE.Successor())
	}
	if want := []ez.CWPoint{{At: 0, CW: r.Caps.Window()}}; len(c.CWTrace) != 1 || c.CWTrace[0] != want[0] {
		t.Fatalf("initial cw trace %v, want %v", c.CWTrace, want)
	}
}
