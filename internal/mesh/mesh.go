// Package mesh composes PHY and MAC stations into a wireless mesh backhaul:
// node placement, static routing (the NOAH-style agent the paper uses to
// factor routing dynamics out of the study), per-flow paths, and the relay
// forwarding logic with one MAC transmit queue per successor plus a separate
// queue for self-originated traffic, as §3.1 of the paper requires so that
// forwarded traffic is never starved by local traffic.
package mesh

import (
	"fmt"
	"slices"
	"sort"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// Node is one mesh station: a MAC plus the network-layer forwarding state.
type Node struct {
	ID  pkt.NodeID
	MAC *mac.MAC

	mesh *Mesh
	// successor queues: one MAC queue per distinct next hop of forwarded
	// traffic, plus one per next hop for local (source) traffic.
	fwdQ map[pkt.NodeID]*mac.Queue
	srcQ map[pkt.NodeID]*mac.Queue
	// hops holds one entry per flow whose installed route leaves this
	// node (SetRoute). A node carries few flows, so lookups scan it.
	hops []hop
}

// hop is a node's forwarding entry for one flow: the flow's successor
// at the node and the queue SetRoute made toward it, the source queue
// at the flow's source and the forward queue at a relay. Inject and
// arrive read the queue from it instead of resolving the successor and
// then the queue by hashing.
type hop struct {
	flow pkt.FlowID
	next pkt.NodeID
	q    *mac.Queue
	src  bool // the route starts here: q is the source queue
}

// hopFor returns the node's entry for flow, or nil when no installed route
// of the flow leaves the node.
func (n *Node) hopFor(flow pkt.FlowID) *hop {
	for i := range n.hops {
		if n.hops[i].flow == flow {
			return &n.hops[i]
		}
	}
	return nil
}

// setHop installs h, replacing the node's entry for the same flow.
func (n *Node) setHop(h hop) {
	if e := n.hopFor(h.flow); e != nil {
		*e = h
		return
	}
	n.hops = append(n.hops, h)
}

// dropHop removes the node's entry for flow, if any.
func (n *Node) dropHop(flow pkt.FlowID) {
	for i := range n.hops {
		if n.hops[i].flow == flow {
			last := len(n.hops) - 1
			n.hops[i] = n.hops[last]
			n.hops[last] = hop{}
			n.hops = n.hops[:last]
			return
		}
	}
}

// Engine returns the simulation engine driving this node's mesh.
func (n *Node) Engine() *sim.Engine { return n.mesh.Eng }

// ForwardQueue returns the forwarding queue toward next, creating it if
// needed.
func (n *Node) ForwardQueue(next pkt.NodeID) *mac.Queue {
	q, ok := n.fwdQ[next]
	if !ok {
		q = n.MAC.NewQueue(next)
		n.fwdQ[next] = q
	}
	return q
}

// SourceQueue returns the local-traffic queue toward next, creating it if
// needed. It is distinct from the forwarding queue toward the same
// successor.
func (n *Node) SourceQueue(next pkt.NodeID) *mac.Queue {
	q, ok := n.srcQ[next]
	if !ok {
		q = n.MAC.NewQueue(next)
		n.srcQ[next] = q
	}
	return q
}

// InjectQueue returns the queue the node's own packets of flow enter:
// its source queue toward the flow's successor here. It panics when no
// installed route of the flow leaves the node.
func (n *Node) InjectQueue(flow pkt.FlowID) *mac.Queue {
	h := n.hopFor(flow)
	if h == nil {
		panic(fmt.Sprintf("mesh: no route for %v at %v", flow, n.ID))
	}
	if h.src {
		return h.q
	}
	// The node relays the flow: its source queue toward the successor
	// is made on first use.
	return n.SourceQueue(h.next)
}

// Queues returns every MAC queue of the node.
func (n *Node) Queues() []*mac.Queue { return n.MAC.Queues() }

// Mesh is the whole backhaul: channel, nodes, flows, and sinks.
type Mesh struct {
	Eng *sim.Engine
	Ch  *phy.Channel

	nodes map[pkt.NodeID]*Node
	// ids caches the node ids in ascending order for Nodes and
	// RoutingGraph (see sortedIDs); AddNode clears it.
	ids []pkt.NodeID
	// routes[flow] is the full node path source..destination; each
	// node's hops entry for the flow holds its successor on it.
	routes map[pkt.FlowID][]pkt.NodeID
	sinks  []SinkFunc
	macCfg mac.Config

	// strategy computes (re)routes; nil selects the registry default
	// (minimum-hop BFS, byte-identical to the pre-registry behaviour).
	strategy routing.Strategy
	// rerouteFailures counts RerouteFlow calls that found no usable path
	// (the flow kept its broken route) — the non-panicking half of the
	// route-validity contract; see CheckRoutes.
	rerouteFailures uint64
	// noRoute counts, per flow, the packets dropped on arrival at a node
	// that no route of their flow leaves; nil until the first such drop.
	noRoute map[pkt.FlowID]uint64
	// repairHooks run after every Repair round, in registration order.
	repairHooks []func()
}

// SinkFunc observes every packet that reaches its final destination.
type SinkFunc func(p *pkt.Packet, at sim.Time)

// New creates an empty mesh over a fresh channel.
func New(eng *sim.Engine, phyCfg phy.Config, macCfg mac.Config) *Mesh {
	return &Mesh{
		Eng:    eng,
		Ch:     phy.NewChannel(eng, phyCfg),
		nodes:  make(map[pkt.NodeID]*Node),
		routes: make(map[pkt.FlowID][]pkt.NodeID),
		macCfg: macCfg,
	}
}

// AddNode creates a station at pos. Stations register before the run:
// once the PHY neighbor index is built (the first transmission or
// routing query), adding one panics (phy.Channel.AddNode).
func (m *Mesh) AddNode(id pkt.NodeID, pos phy.Position) *Node {
	if _, dup := m.nodes[id]; dup {
		panic(fmt.Sprintf("mesh: duplicate node %v", id))
	}
	n := &Node{
		ID:   id,
		MAC:  mac.New(m.Eng, m.Ch, id, pos, m.macCfg),
		mesh: m,
		fwdQ: make(map[pkt.NodeID]*mac.Queue),
		srcQ: make(map[pkt.NodeID]*mac.Queue),
	}
	n.MAC.OnDeliver(func(p *pkt.Packet, from pkt.NodeID) { m.arrive(n, p) })
	m.nodes[id] = n
	m.ids = nil
	return n
}

// Node returns the node with the given id, or nil.
func (m *Mesh) Node(id pkt.NodeID) *Node { return m.nodes[id] }

// MoveNodes relocates nodes in the order given and rebuilds the PHY
// neighbor index once (phy.Channel.MoveNodes). It reports whether
// decode-range link membership changed — the mobility engine's cue to
// run route repair. No node may be mid-transmission; callers gate on
// Ch.Transmitting.
func (m *Mesh) MoveNodes(moves []phy.Move) bool { return m.Ch.MoveNodes(moves) }

// Pool returns the packet/frame pool shared by the mesh's whole stack.
// Traffic generators draw packets from it and Release their reference
// once queued; the pool recycles each packet once every queue on the
// path has let go.
func (m *Mesh) Pool() *pkt.Pool { return m.Ch.Pool() }

// Nodes returns all nodes sorted by id, in a fresh slice.
func (m *Mesh) Nodes() []*Node {
	ids := m.sortedIDs()
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = m.nodes[id]
	}
	return out
}

// sortedIDs returns the node ids in ascending order, from the cache
// AddNode clears. Callers must not modify the slice.
func (m *Mesh) sortedIDs() []pkt.NodeID {
	if m.ids == nil {
		m.ids = make([]pkt.NodeID, 0, len(m.nodes))
		for id := range m.nodes {
			m.ids = append(m.ids, id)
		}
		slices.Sort(m.ids)
	}
	return m.ids
}

// AddSink registers an observer of packets reaching their destination.
func (m *Mesh) AddSink(s SinkFunc) { m.sinks = append(m.sinks, s) }

// SetRoute installs the static path for a flow. The path must contain at
// least two nodes, all previously added. Queues along the path are created
// eagerly so controllers can attach before traffic starts, and each node
// the path leaves records the flow's successor and queue there (its hops
// entry), replacing what the flow's previous route recorded. Where a path
// visits a node twice, its later successor wins.
func (m *Mesh) SetRoute(flow pkt.FlowID, path []pkt.NodeID) {
	if len(path) < 2 {
		panic("mesh: route needs at least source and destination")
	}
	for _, id := range path {
		if m.nodes[id] == nil {
			panic(fmt.Sprintf("mesh: route through unknown node %v", id))
		}
	}
	if old := m.routes[flow]; len(old) > 0 {
		for _, id := range old[:len(old)-1] {
			m.nodes[id].dropHop(flow)
		}
	}
	for i := 0; i < len(path)-1; i++ {
		n, next := m.nodes[path[i]], path[i+1]
		h := hop{flow: flow, next: next, src: i == 0}
		if h.src {
			h.q = n.SourceQueue(next)
		} else {
			h.q = n.ForwardQueue(next)
		}
		n.setHop(h)
	}
	m.routes[flow] = append([]pkt.NodeID(nil), path...)
}

// Route returns the installed path of a flow.
func (m *Mesh) Route(flow pkt.FlowID) []pkt.NodeID { return m.routes[flow] }

// Flows returns all flow ids with installed routes, sorted.
func (m *Mesh) Flows() []pkt.FlowID {
	out := make([]pkt.FlowID, 0, len(m.routes))
	for f := range m.routes {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RelaySet reports the nodes that forward traffic on some flow (appear
// in the interior of an installed route) — the coverage rule every
// controller deployment shares: only queues draining into a relay need
// a controller, because a destination never forwards.
func (m *Mesh) RelaySet() map[pkt.NodeID]bool {
	rs := make(map[pkt.NodeID]bool)
	for _, f := range m.Flows() {
		route := m.routes[f]
		for i := 1; i < len(route)-1; i++ {
			rs[route[i]] = true
		}
	}
	return rs
}

// Inject enqueues a freshly generated packet at the source of its flow
// (Node.InjectQueue of its Src). It reports false if the source queue
// overflowed.
func (m *Mesh) Inject(p *pkt.Packet) bool {
	n := m.nodes[p.Src]
	if n == nil {
		panic(fmt.Sprintf("mesh: inject at unknown node %v", p.Src))
	}
	return n.InjectQueue(p.Flow).Enqueue(p)
}

// SetStrategy installs the routing strategy (re)routes are computed
// with. Nil restores the registry default (minimum-hop BFS). It only
// selects the algorithm — installed routes stay untouched until
// RecomputeRoutes or RerouteFlow runs.
func (m *Mesh) SetStrategy(s routing.Strategy) { m.strategy = s }

// Strategy returns the active routing strategy, materialising the
// registry default on first use.
func (m *Mesh) Strategy() routing.Strategy {
	if m.strategy == nil {
		m.strategy = routing.Default()
	}
	return m.strategy
}

// RoutingGraph assembles the read-only topology view routing strategies
// compute over: ascending node ids, candidate next hops from the PHY
// neighbor index, the usable-link predicate (plain transmission range
// when usable is nil — the build-time connectivity), the channel's
// calibrated losses, and the live per-link MAC counters. usable must
// admit only links within transmission range: candidates come from
// phy.Channel.TxNeighbors. The Graph is one routing round's snapshot
// (see routing.Graph); build a new one after the topology changes.
func (m *Mesh) RoutingGraph(usable func(a, b pkt.NodeID) bool) *routing.Graph {
	if usable == nil {
		usable = m.Ch.InTxRange
	}
	return &routing.Graph{
		IDs:       m.sortedIDs(),
		Neighbors: m.Ch.TxNeighbors,
		Usable:    usable,
		LinkLoss:  m.Ch.LinkLoss,
		Measured:  m.linkMeasured,
	}
}

// linkMeasured sums the MAC counters of a's queues draining toward b —
// the measured-cost inputs of the etx strategy. ok is false when a has
// never had a queue toward b (no traffic has crossed the link).
func (m *Mesh) linkMeasured(a, b pkt.NodeID) (acked, retries uint64, ok bool) {
	n := m.nodes[a]
	if n == nil {
		return 0, 0, false
	}
	if q := n.fwdQ[b]; q != nil {
		acked += q.Dequeued
		retries += q.Retries
		ok = true
	}
	if q := n.srcQ[b]; q != nil {
		acked += q.Dequeued
		retries += q.Retries
		ok = true
	}
	return acked, retries, ok
}

// RerouteFlow recomputes the flow's path from its source to its
// destination with the active routing strategy over the links admitted by
// the usable predicate (typically transmission range minus failed links
// and halted nodes; see RoutingGraph) and installs the result. Every
// strategy is deterministic, so repairs are too. It reports whether a
// path was found; when none exists the previous route stays in place and
// the failure is counted (RerouteFailures) — traffic stalls at the break
// until connectivity returns, exactly like a static routing agent that
// has not re-converged. Endpoints are always considered, even when usable
// excludes them as relays of other flows.
func (m *Mesh) RerouteFlow(flow pkt.FlowID, usable func(a, b pkt.NodeID) bool) bool {
	return m.reroute(m.RoutingGraph(usable), flow)
}

// RerouteFlows repairs every installed flow, in ascending id order, as
// RerouteFlow would, over one routing graph for the whole round, so the
// strategy can share work between flows: BFS searches once per distinct
// source. Repair runs every round through it.
func (m *Mesh) RerouteFlows(usable func(a, b pkt.NodeID) bool) {
	g := m.RoutingGraph(usable)
	for _, f := range m.Flows() {
		m.reroute(g, f)
	}
}

// Usable reports whether the directed link a->b can carry traffic right
// now: both stations up (mac.MAC.Down), the link not severed
// (phy.Channel.LinkDown) and b within a's decode range. It is the
// predicate of every Repair round.
func (m *Mesh) Usable(a, b pkt.NodeID) bool {
	return !m.nodes[a].MAC.Down() && !m.nodes[b].MAC.Down() &&
		!m.Ch.LinkDown(a, b) && m.Ch.InTxRange(a, b)
}

// Repair is the one route-repair round: it reroutes every flow over the
// links Usable admits (RerouteFlows), then runs the OnRepair hooks in
// registration order. Scripted faults and mobility ticks both call it.
func (m *Mesh) Repair() {
	m.RerouteFlows(m.Usable)
	for _, hook := range m.repairHooks {
		hook()
	}
}

// OnRepair registers hook to run after every Repair round, once the
// round's routes are installed — how a controller extends itself over
// the queues a repair created, and how the dynamics engine records the
// relays a repair promoted.
func (m *Mesh) OnRepair(hook func()) { m.repairHooks = append(m.repairHooks, hook) }

// reroute is RerouteFlow over a prepared graph.
func (m *Mesh) reroute(g *routing.Graph, flow pkt.FlowID) bool {
	route := m.routes[flow]
	if len(route) < 2 {
		return false
	}
	src, dst := route[0], route[len(route)-1]
	path, ok := m.Strategy().Route(g, flow, src, dst)
	if !ok {
		m.rerouteFailures++
		return false
	}
	if samePath(path, route) {
		return true
	}
	m.SetRoute(flow, path)
	return true
}

// RerouteFailures reports how many RerouteFlow calls found no usable
// path. The observability layer exports it as the mesh.reroute_failures
// gauge, so a silently-stalled flow is visible without a debugger.
func (m *Mesh) RerouteFailures() uint64 { return m.rerouteFailures }

// NoRouteDrops reports how many packets of flow were dropped on arrival at
// a node that no route of the flow leaves: packets sent toward a hop
// before a repair moved the route away. The observability layer exports
// the sum over flows as the mesh.drops_noroute gauge.
func (m *Mesh) NoRouteDrops(flow pkt.FlowID) uint64 { return m.noRoute[flow] }

// RecomputeRoutes reruns the active strategy over every installed flow
// (ascending id order) at the current connectivity, replacing each route
// that changed. Endpoints are preserved. Wiring calls it when a
// non-default strategy is selected, so builder-installed minimum-hop
// routes become the strategy's choice before traffic starts. It returns
// an error naming the first flow left without a path — impossible on the
// connectivity-validated builders, but a caller-built mesh can be
// disconnected.
func (m *Mesh) RecomputeRoutes() error {
	g := m.RoutingGraph(nil)
	s := m.Strategy()
	for _, f := range m.Flows() {
		route := m.routes[f]
		src, dst := route[0], route[len(route)-1]
		path, ok := s.Route(g, f, src, dst)
		if !ok {
			return fmt.Errorf("mesh: routing %q found no path for flow %v (%v to %v)", s.Name(), f, src, dst)
		}
		if !samePath(path, route) {
			m.SetRoute(f, path)
		}
	}
	return nil
}

// samePath reports whether two routes are identical.
func samePath(a, b []pkt.NodeID) bool {
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

// arrive handles a packet delivered by the MAC to node n: sink it at the
// final destination or forward it along the flow's path.
func (m *Mesh) arrive(n *Node, p *pkt.Packet) {
	if p.Dst == n.ID {
		for _, s := range m.sinks {
			s(p, m.Eng.Now())
		}
		return
	}
	h := n.hopFor(p.Flow)
	if h == nil {
		// No route of the flow leaves this node, as for a packet sent
		// before a repair moved the route away: drop and count it.
		if m.noRoute == nil {
			m.noRoute = make(map[pkt.FlowID]uint64)
		}
		m.noRoute[p.Flow]++
		return
	}
	if h.src {
		// Back at its flow's source: forwarded like at a relay, through
		// a forward queue made on first use.
		n.ForwardQueue(h.next).Enqueue(p)
		return
	}
	h.q.Enqueue(p)
}
