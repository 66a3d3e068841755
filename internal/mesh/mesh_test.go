package mesh

import (
	"math/rand"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

func newChain(t *testing.T, hops int) *Mesh {
	t.Helper()
	eng := sim.NewEngine(1)
	return Chain(eng, hops, phy.DefaultConfig(), mac.DefaultConfig())
}

func TestChainTopology(t *testing.T) {
	m := newChain(t, 4)
	if len(m.Nodes()) != 5 {
		t.Fatalf("nodes = %d, want 5", len(m.Nodes()))
	}
	route := m.Route(1)
	if len(route) != 5 || route[0] != 0 || route[4] != 4 {
		t.Fatalf("route = %v", route)
	}
	// Consecutive nodes in TX range, 3-apart nodes hidden.
	for i := 0; i < 4; i++ {
		if !m.Ch.InTxRange(pkt.NodeID(i), pkt.NodeID(i+1)) {
			t.Fatalf("link %d-%d out of range", i, i+1)
		}
	}
	if inCSRange(m, 0, 3) {
		t.Fatal("nodes 3 hops apart should be hidden (outside CS range)")
	}
	if !inCSRange(m, 0, 2) {
		t.Fatal("nodes 2 hops apart should sense each other")
	}
}

func TestNextHop(t *testing.T) {
	m := newChain(t, 3)
	nh, ok := m.NextHop(1, 1)
	if !ok || nh != 2 {
		t.Fatalf("next hop of N1 = %v/%v", nh, ok)
	}
	if _, ok := m.NextHop(1, 3); ok {
		t.Fatal("destination has a next hop")
	}
	if _, ok := m.NextHop(1, 99); ok {
		t.Fatal("off-route node has a successor")
	}
}

func TestEndToEndDelivery(t *testing.T) {
	m := newChain(t, 3)
	var sank []*pkt.Packet
	m.AddSink(func(p *pkt.Packet, at sim.Time) { sank = append(sank, p) })
	for i := uint64(1); i <= 10; i++ {
		if !m.Inject(pkt.NewPool().Packet(1, i, 0, 3, 1028, m.Eng.Now())) {
			t.Fatalf("inject %d failed", i)
		}
	}
	m.Eng.Run(30 * sim.Second)
	if len(sank) != 10 {
		t.Fatalf("sank %d packets, want 10", len(sank))
	}
	for i, p := range sank {
		if p.Seq != uint64(i+1) {
			t.Fatalf("out-of-order end-to-end delivery: %v", sank)
		}
	}
}

// TestNoRouteDropsCounted delivers a packet at a node its flow's route no
// longer leaves: the mesh drops it and counts it for its flow. A static
// chain's traffic counts none.
func TestNoRouteDropsCounted(t *testing.T) {
	m := newChain(t, 3)
	for i := uint64(1); i <= 10; i++ {
		m.Inject(pkt.NewPool().Packet(1, i, 0, 3, 1028, m.Eng.Now()))
	}
	m.Eng.Run(30 * sim.Second)
	if n := m.NoRouteDrops(1); n != 0 {
		t.Fatalf("static chain dropped %d packets for want of a route", n)
	}
	// The route moves off N2 while a packet is on its way there.
	m.SetRoute(1, []pkt.NodeID{0, 1, 3})
	m.arrive(m.Node(2), pkt.NewPool().Packet(1, 11, 0, 3, 1028, m.Eng.Now()))
	if n := m.NoRouteDrops(1); n != 1 {
		t.Fatalf("flow 1 no-route drops = %d, want 1", n)
	}
	if n := m.NoRouteDrops(2); n != 0 {
		t.Fatalf("flow 2 no-route drops = %d, want 0", n)
	}
}

func TestSourceAndForwardQueuesSeparate(t *testing.T) {
	// A node that is both source of one flow and relay of another keeps
	// two distinct queues toward the same successor (§3.1).
	eng := sim.NewEngine(1)
	m := New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	for i := 0; i <= 3; i++ {
		m.AddNode(pkt.NodeID(i), phy.Position{X: float64(i) * 200})
	}
	m.SetRoute(1, []pkt.NodeID{0, 1, 2, 3}) // N1 relays flow 1
	m.SetRoute(2, []pkt.NodeID{1, 2, 3})    // N1 sources flow 2
	n1 := m.Node(1)
	fq := n1.ForwardQueue(2)
	sq := n1.SourceQueue(2)
	if fq == sq {
		t.Fatal("forward and source queues must be distinct")
	}
	if len(n1.Queues()) != 2 {
		t.Fatalf("N1 has %d queues, want 2", len(n1.Queues()))
	}
	if fq.NextHop() != 2 || sq.NextHop() != 2 {
		t.Fatal("queue next hops")
	}
}

func TestRelayDepth(t *testing.T) {
	m := newChain(t, 3)
	n1 := m.Node(1)
	if n1.RelayDepth() != 0 {
		t.Fatal("fresh relay depth non-zero")
	}
	n1.ForwardQueue(2).Enqueue(pkt.NewPool().Packet(1, 1, 0, 3, 100, 0))
	if n1.RelayDepth() != 1 {
		t.Fatal("relay depth after enqueue")
	}
}

func TestEngineAccessor(t *testing.T) {
	m := newChain(t, 2)
	if m.Node(0).Engine() != m.Eng {
		t.Fatal("node engine accessor")
	}
}

func TestFlowsSorted(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	for i := 0; i <= 2; i++ {
		m.AddNode(pkt.NodeID(i), phy.Position{X: float64(i) * 200})
	}
	m.SetRoute(5, []pkt.NodeID{0, 1, 2})
	m.SetRoute(2, []pkt.NodeID{2, 1, 0})
	f := m.Flows()
	if len(f) != 2 || f[0] != 2 || f[1] != 5 {
		t.Fatalf("flows = %v", f)
	}
}

func TestBadRoutePanics(t *testing.T) {
	m := newChain(t, 2)
	for _, path := range [][]pkt.NodeID{
		{0},     // too short
		{0, 99}, // unknown node
		{99, 0}, // unknown source
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRoute(%v) did not panic", path)
				}
			}()
			m.SetRoute(9, path)
		}()
	}
}

func TestInjectUnknownPanics(t *testing.T) {
	m := newChain(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("inject with no route did not panic")
		}
	}()
	m.Inject(pkt.NewPool().Packet(9, 1, 0, 2, 100, 0))
}

func TestScenario1Topology(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Scenario1(eng, phy.DefaultConfig(), mac.DefaultConfig())
	if len(m.Nodes()) != 13 {
		t.Fatalf("nodes = %d, want 13", len(m.Nodes()))
	}
	r1, r2 := m.Route(1), m.Route(2)
	if len(r1) != 9 || len(r2) != 9 {
		t.Fatalf("route lengths %d/%d, want 8-hop flows", len(r1)-1, len(r2)-1)
	}
	// Both flows merge at N4 and share the trunk to N0.
	if r1[4] != 4 || r2[4] != 4 || r1[8] != 0 || r2[8] != 0 {
		t.Fatalf("merge structure wrong: %v %v", r1, r2)
	}
	// Every consecutive pair must be connected.
	for _, r := range [][]pkt.NodeID{r1, r2} {
		for i := 0; i < len(r)-1; i++ {
			if !m.Ch.InTxRange(r[i], r[i+1]) {
				t.Fatalf("link %v-%v out of range", r[i], r[i+1])
			}
		}
	}
}

func TestScenario2Topology(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Scenario2(eng, phy.DefaultConfig(), mac.DefaultConfig())
	r1, r2, r3 := m.Route(1), m.Route(2), m.Route(3)
	if len(r1) != 10 || len(r2) != 5 || len(r3) != 9 {
		t.Fatalf("route lengths: %d %d %d", len(r1), len(r2), len(r3))
	}
	for _, r := range [][]pkt.NodeID{r1, r2, r3} {
		for i := 0; i < len(r)-1; i++ {
			if !m.Ch.InTxRange(r[i], r[i+1]) {
				t.Fatalf("link %v-%v out of range", r[i], r[i+1])
			}
		}
	}
	// The defining hidden-node property: source of F2 (N10) is hidden
	// from source of F1 (N0).
	if inCSRange(m, 0, 10) {
		t.Fatal("N10 must be hidden from N0 (Figure 9)")
	}
}

func TestTestbedTopology(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Testbed(eng, phy.DefaultConfig(), mac.DefaultConfig())
	r1, r2 := m.Route(1), m.Route(2)
	if len(r1)-1 != 7 {
		t.Fatalf("F1 is %d hops, want 7", len(r1)-1)
	}
	if len(r2)-1 != 4 {
		t.Fatalf("F2 is %d hops, want 4", len(r2)-1)
	}
	// F2 shares F1's tail (parking lot): its second node is N4.
	if r2[1] != 4 {
		t.Fatalf("F2 does not merge at N4: %v", r2)
	}
	// Calibrated losses installed on F1's links, with l2 the worst.
	l2 := m.Ch.LinkLoss(2, 3)
	for i := 0; i < 7; i++ {
		li := m.Ch.LinkLoss(pkt.NodeID(i), pkt.NodeID(i+1))
		if li <= 0 {
			t.Fatalf("link l%d has no loss calibration", i)
		}
		if li > l2 {
			t.Fatalf("l2 must be the bottleneck; l%d=%.2f > l2=%.2f", i, li, l2)
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	m := newChain(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	m.AddNode(0, phy.Position{})
}

// TestHopTableMatchesRoutes installs random routes, some revisiting a
// node, and checks after each SetRoute that every node's hop entries
// agree with a per-flow successor map written the way routes were once
// stored (one entry per path position, later positions overwriting
// earlier ones): NextHop, the queue Inject fills (the source queue
// toward that successor) and the queue arrive forwards into (the
// forward queue toward it), or no forwarding at all off the route.
func TestHopTableMatchesRoutes(t *testing.T) {
	const nodes, flows = 7, 3
	eng := sim.NewEngine(1)
	m := New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	for i := 0; i < nodes; i++ {
		m.AddNode(pkt.NodeID(i), phy.Position{X: float64(i) * 100})
	}
	ref := make(map[pkt.FlowID]map[pkt.NodeID]pkt.NodeID)
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	for step := 0; step < 300; step++ {
		f := pkt.FlowID(1 + rng.Intn(flows))
		path := make([]pkt.NodeID, 2+rng.Intn(5))
		for i := range path {
			path[i] = pkt.NodeID(rng.Intn(nodes))
			for i > 0 && path[i] == path[i-1] {
				path[i] = pkt.NodeID(rng.Intn(nodes))
			}
		}
		m.SetRoute(f, path)
		hops := make(map[pkt.NodeID]pkt.NodeID)
		for i := 0; i < len(path)-1; i++ {
			hops[path[i]] = path[i+1]
		}
		ref[f] = hops

		for flow, hops := range ref {
			for id := pkt.NodeID(0); id < nodes; id++ {
				n := m.Node(id)
				want, on := hops[id]
				got, ok := m.NextHop(flow, id)
				if ok != on || got != want {
					t.Fatalf("step %d: NextHop(%v, %v) = %v, %v; want %v, %v", step, flow, id, got, ok, want, on)
				}
				// A packet of flow arriving at id, bound beyond every node.
				seq++
				p := pkt.NewPool().Packet(flow, seq, 0, nodes, 100, 0)
				var fq *mac.Queue
				before := make([]uint64, 0, len(n.Queues())+1)
				if on {
					fq = n.ForwardQueue(want)
				}
				for _, q := range n.Queues() {
					before = append(before, q.Enqueued+q.Dropped)
				}
				m.arrive(n, p)
				for i, q := range n.Queues() {
					if moved := q.Enqueued+q.Dropped != before[i]; moved != (q == fq) {
						t.Fatalf("step %d: flow %v arriving at %v touched queue to %v (moved %v), want the forward queue to %v (on route %v)",
							step, flow, id, q.NextHop(), moved, want, on)
					}
				}
				if !on {
					continue
				}
				if q := n.InjectQueue(flow); q != n.SourceQueue(want) {
					t.Fatalf("step %d: InjectQueue(%v) at %v is the queue to %v, want the source queue to %v", step, flow, id, q.NextHop(), want)
				}
			}
		}
	}
}

// inCSRange reports whether b senses a's transmissions.
func inCSRange(m *Mesh, a, b pkt.NodeID) bool {
	return m.Ch.Position(a).Dist(m.Ch.Position(b)) <= m.Ch.Config().CSRange
}
