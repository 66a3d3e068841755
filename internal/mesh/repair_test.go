package mesh

import (
	"slices"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// TestRepair drives three repair rounds over a 3x3 grid (flow 1 from N8
// along the top row and down column 0 through N3 to N0, flow 2 from N2
// along the bottom row through N1 to N0). It checks that Repair reads
// the MAC's halted flag and the channel's severed links, that a flow
// with no path keeps its route and counts the failure, and that the
// hooks run once per round, in registration order, after the round's
// routes are installed.
func TestRepair(t *testing.T) {
	m := Grid(sim.NewEngine(1), 3, 3, phy.DefaultConfig(), mac.DefaultConfig())
	var calls []string
	var seen [][]pkt.NodeID
	m.OnRepair(func() {
		calls = append(calls, "first")
		seen = append(seen, slices.Clone(m.Route(1)))
	})
	m.OnRepair(func() { calls = append(calls, "second") })

	// The test's own view of usable links: what it has switched off
	// itself, plus decode range.
	halted := map[pkt.NodeID]bool{}
	severed := map[[2]pkt.NodeID]bool{}
	usable := func(a, b pkt.NodeID) bool {
		return !halted[a] && !halted[b] && !severed[[2]pkt.NodeID{a, b}] && m.Ch.InTxRange(a, b)
	}
	checkUsable := func(round int) {
		t.Helper()
		for _, f := range m.Flows() {
			route := m.Route(f)
			for i := 1; i < len(route); i++ {
				if !usable(route[i-1], route[i]) {
					t.Fatalf("round %d: flow %v route %v uses %v->%v", round, f, route, route[i-1], route[i])
				}
			}
		}
	}

	// Round 1: halt N3. Flow 1 must leave it; flow 2 never used it.
	m.Node(3).MAC.SetDown(true)
	halted[3] = true
	m.Repair()
	if slices.Contains(m.Route(1), 3) {
		t.Fatalf("round 1: flow 1 still relays through halted N3: %v", m.Route(1))
	}
	checkUsable(1)
	if !slices.Equal(seen[0], m.Route(1)) {
		t.Fatalf("round 1: hook saw route %v, installed %v", seen[0], m.Route(1))
	}

	// Round 2: also sever N1<->N0. N0's only neighbours are N1 and N3, so
	// neither flow has a path: both keep their routes and count a failure.
	m.Ch.SetLinkDown(1, 0, true)
	m.Ch.SetLinkDown(0, 1, true)
	severed[[2]pkt.NodeID{1, 0}], severed[[2]pkt.NodeID{0, 1}] = true, true
	before := map[pkt.FlowID][]pkt.NodeID{1: slices.Clone(m.Route(1)), 2: slices.Clone(m.Route(2))}
	failures := m.RerouteFailures()
	m.Repair()
	for f, route := range before {
		if !slices.Equal(m.Route(f), route) {
			t.Fatalf("round 2: pathless flow %v moved from %v to %v", f, route, m.Route(f))
		}
	}
	if got := m.RerouteFailures() - failures; got != 2 {
		t.Fatalf("round 2: %d failures counted, want 2", got)
	}

	// Round 3: restart N3. Both flows route again, over N3.
	m.Node(3).MAC.SetDown(false)
	delete(halted, 3)
	m.Repair()
	checkUsable(3)
	for _, f := range m.Flows() {
		if !slices.Contains(m.Route(f), 3) {
			t.Fatalf("round 3: flow %v routes %v, not over the restarted N3", f, m.Route(f))
		}
	}
	if got := m.RerouteFailures() - failures; got != 2 {
		t.Fatalf("round 3: failures went from 2 to %d", got)
	}

	want := []string{"first", "second", "first", "second", "first", "second"}
	if !slices.Equal(calls, want) {
		t.Fatalf("hook calls %v, want %v", calls, want)
	}
	if !slices.Equal(seen[2], m.Route(1)) {
		t.Fatalf("round 3: hook saw route %v, installed %v", seen[2], m.Route(1))
	}
}
