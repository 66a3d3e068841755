package mesh

import (
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

func TestTreeStructure(t *testing.T) {
	for _, tc := range []struct{ b, depth, nodes, leaves int }{
		{2, 2, 7, 4},
		{2, 3, 15, 8},
		{3, 2, 13, 9},
		{4, 2, 21, 16},
	} {
		eng := sim.NewEngine(1)
		m := Tree(eng, tc.b, tc.depth, phy.DefaultConfig(), mac.DefaultConfig())
		if got := len(m.Nodes()); got != tc.nodes {
			t.Errorf("b=%d depth=%d: %d nodes, want %d", tc.b, tc.depth, got, tc.nodes)
		}
		if got := len(m.Flows()); got != tc.leaves {
			t.Errorf("b=%d depth=%d: %d flows, want %d", tc.b, tc.depth, got, tc.leaves)
		}
		if TreeLeaves(tc.b, tc.depth) != tc.leaves {
			t.Errorf("TreeLeaves(%d,%d)", tc.b, tc.depth)
		}
		// Every route starts at the gateway, ends at a distinct leaf, and
		// every hop is within TX range.
		seen := map[pkt.NodeID]bool{}
		for _, f := range m.Flows() {
			r := m.Route(f)
			if r[0] != 0 {
				t.Errorf("flow %v does not start at the gateway: %v", f, r)
			}
			if len(r) != tc.depth+1 {
				t.Errorf("flow %v has %d hops, want %d", f, len(r)-1, tc.depth)
			}
			leaf := r[len(r)-1]
			if seen[leaf] {
				t.Errorf("leaf %v used twice", leaf)
			}
			seen[leaf] = true
			for i := 0; i < len(r)-1; i++ {
				if !m.Ch.InTxRange(r[i], r[i+1]) {
					t.Errorf("b=%d: link %v-%v out of range (%.0f m)",
						tc.b, r[i], r[i+1],
						m.Ch.Position(r[i]).Dist(m.Ch.Position(r[i+1])))
				}
			}
		}
	}
}

func TestTreeGatewayHasPerSuccessorQueues(t *testing.T) {
	// §7: a node forwarding to up to four successors uses one MAC queue
	// (one CWmin) per successor.
	eng := sim.NewEngine(1)
	m := Tree(eng, 4, 2, phy.DefaultConfig(), mac.DefaultConfig())
	gw := m.Node(0)
	if got := len(gw.Queues()); got != 4 {
		t.Fatalf("gateway has %d queues, want 4 (one per successor)", got)
	}
	// The queues are independently tunable.
	gw.Queues()[0].SetCWmin(64)
	gw.Queues()[1].SetCWmin(256)
	if gw.Queues()[0].CWmin() == gw.Queues()[1].CWmin() {
		t.Fatal("per-successor CWmin not independent")
	}
}

func TestTreeValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, tc := range []struct{ b, d int }{{1, 2}, {5, 2}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Tree(%d,%d) did not panic", tc.b, tc.d)
				}
			}()
			Tree(eng, tc.b, tc.d, phy.DefaultConfig(), mac.DefaultConfig())
		}()
	}
}

func TestTreeTrafficFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Tree(eng, 2, 2, phy.DefaultConfig(), mac.DefaultConfig())
	delivered := map[pkt.FlowID]int{}
	m.AddSink(func(p *pkt.Packet, _ sim.Time) { delivered[p.Flow]++ })
	for _, f := range m.Flows() {
		r := m.Route(f)
		for i := uint64(1); i <= 5; i++ {
			m.Inject(pkt.NewPool().Packet(f, i, r[0], r[len(r)-1], 1028, eng.Now()))
		}
	}
	eng.Run(60 * sim.Second)
	for _, f := range m.Flows() {
		if delivered[f] != 5 {
			t.Errorf("flow %v delivered %d/5", f, delivered[f])
		}
	}
}
