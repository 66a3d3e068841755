package ezflow_test

import (
	"testing"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// TestDeployTreePerSuccessorControllers exercises the §7 extension: on a
// downlink tree, every interior node gets one controller per successor
// queue, each watching its own successor.
func TestDeployTreePerSuccessorControllers(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.Tree(eng, 3, 2, phy.DefaultConfig(), mac.DefaultConfig())
	dep := deployEZ(t, m, ez.Options{})

	// Gateway N0 forwards to relays N1, N2, N3 (all interior): three
	// controllers at N0, one per successor.
	gw := relaysAt(dep, 0)
	if len(gw) != 3 {
		t.Fatalf("gateway controllers = %d, want 3", len(gw))
	}
	succs := map[pkt.NodeID]bool{}
	for _, r := range gw {
		succs[r.Successor] = true
		if r.Caps.Queue().NextHop() != r.Successor {
			t.Fatalf("controller %v->%v bound to queue toward %v",
				r.Node, r.Successor, r.Caps.Queue().NextHop())
		}
		if got := ezOf(r).BOE.Successor(); got != r.Successor {
			t.Fatalf("controller %v->%v estimates %v's buffer", r.Node, r.Successor, got)
		}
	}
	if !succs[1] || !succs[2] || !succs[3] {
		t.Fatalf("gateway successors watched: %v", succs)
	}
	// Interior nodes forward only to leaves: no controllers there.
	if n := len(relaysAt(dep, 1)); n != 0 {
		t.Fatalf("interior-to-leaf node has %d controllers, want 0", n)
	}
}

// TestTreeControllersActIndependently overloads one branch only and
// verifies that only that branch's controller reacts while the others keep
// their windows.
func TestTreeControllersActIndependently(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.Tree(eng, 3, 2, phy.DefaultConfig(), mac.DefaultConfig())
	dep := deployEZ(t, m, ez.Options{})

	// Flows 1..3 descend through N1, 4..6 through N2, 7..9 through N3.
	// Saturate only the flows of the first branch.
	for _, f := range []pkt.FlowID{1, 2, 3} {
		traffic.NewCBR(m, f, 7e5, 1028).Start()
	}
	// A trickle on one other-branch flow to keep its BOE sampled.
	traffic.NewCBR(m, 7, 2e4, 1028).Start()

	eng.Run(900 * sim.Second)

	hot, cold := relayAt(dep, 0, 1), relayAt(dep, 0, 3)
	if hot == nil || cold == nil {
		t.Fatal("missing controllers")
	}
	if ezOf(hot).BOE.Estimates == 0 {
		t.Fatal("hot branch BOE produced no estimates")
	}
	if hot.Caps.Window() <= cold.Caps.Window() {
		t.Fatalf("hot branch cw %d not above cold branch cw %d",
			hot.Caps.Window(), cold.Caps.Window())
	}
}
