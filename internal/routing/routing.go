// Package routing is the route-computation subsystem of the repository:
// pluggable path-selection strategies behind a name registry that exactly
// mirrors internal/ctl's congestion-controller registry. The paper factors
// routing dynamics out of its study with a static NOAH-style agent, and
// until PR 7 that agent was hardcoded breadth-first search inside
// internal/mesh; the PR 6 diagnosis of the DiskScaling collapse (route
// *quality*, not MAC loss, starves long random-disk paths) made route
// selection an experiment axis of its own.
//
// Three strategies are registered:
//
//   - "bfs" — the legacy minimum-hop breadth-first search, byte-identical
//     to the pre-registry behaviour (it is the default everywhere).
//   - "etx" — minimum expected-transmission-count (De Couto's ETX) over
//     the calibrated per-link loss probabilities, switching to measured
//     per-link MAC counters (dequeues and retries, the PR 6 observability
//     inputs) once a link has carried enough traffic.
//   - "kshortest" — deterministic Yen k-shortest multipath with per-flow
//     tie-broken selection, so concurrent flows spread over link-disjoint
//     alternatives instead of piling onto one geodesic.
//
// Strategies compute over a Graph — a read-only view of the mesh carrying
// node ids, a usable-link predicate, calibrated losses and live per-link
// counters — and never mutate the mesh themselves; internal/mesh installs
// whatever path a strategy returns. Every strategy is deterministic: the
// same graph, flow and endpoints always yield the identical path, on any
// worker count and under the race detector, because all iteration is in
// ascending node-id order and every tie has a documented break rule.
package routing

import (
	"slices"
	"strings"

	"ezflow/internal/pkt"
	"ezflow/internal/registry"
)

// Graph is the read-only topology view a Strategy computes over. The mesh
// layer assembles it; strategies never see the mesh itself, so they cannot
// perturb simulation state.
//
// A Graph is a snapshot: build one per routing round (a repair of every
// flow, a wiring-time recomputation) and do not change the topology or
// the predicates behind it between Route calls on it. Strategies may
// memoise work on the Graph for the rest of the round — BFS keeps one
// search tree per source — so a stale Graph would keep answering for the
// old topology. A Graph is not safe for concurrent Route calls.
type Graph struct {
	// IDs holds every node id in ascending order. Strategies iterate this
	// slice (never a map) so their visit order is deterministic.
	IDs []pkt.NodeID
	// Neighbors calls yield(b), in ascending id order, for every b != a
	// that a might reach: a superset of the b with Usable(a, b), which
	// strategies still check per candidate. The mesh walks the PHY
	// neighbor index here, so a search costs O(degree) per node instead
	// of O(N). Nil stands for every id in IDs.
	Neighbors func(a pkt.NodeID, yield func(b pkt.NodeID))
	// Usable reports whether the directed link a->b can carry traffic
	// right now: both endpoints up, the link not severed, b within a's
	// transmission range. During route repair this is the dynamics
	// engine's connectivity predicate; at build time it is plain
	// transmission range.
	Usable func(a, b pkt.NodeID) bool
	// LinkLoss reports the calibrated erasure probability of the directed
	// link a->b (0 when none is configured) — the a-priori input of
	// link-quality metrics.
	LinkLoss func(a, b pkt.NodeID) float64
	// Measured reports the live per-link MAC counters for traffic a sent
	// toward b: packets that left a's queues to b (acked head-of-line
	// departures) and retransmission attempts. ok is false when a has no
	// queue toward b. Nil when the caller has no MAC state (pure
	// topology-level computations).
	Measured func(a, b pkt.NodeID) (acked, retries uint64, ok bool)

	// trees memoises BFS search trees by source (see BFS.Route); owner
	// guards against a copied Graph reusing the original's trees.
	trees *bfsTrees
}

// neighbors calls yield for every candidate next hop of a: the Graph's
// Neighbors, or every other id when a hand-built Graph leaves it nil.
func (g *Graph) neighbors(a pkt.NodeID, yield func(b pkt.NodeID)) {
	if g.Neighbors != nil {
		g.Neighbors(a, yield)
		return
	}
	for _, b := range g.IDs {
		if b != a {
			yield(b)
		}
	}
}

// slot returns id's position in IDs. Ids are often dense from 0, so the
// common case is a direct hit; anything else falls back to binary search.
func (g *Graph) slot(id pkt.NodeID) (int, bool) {
	if i := int(id); i >= 0 && i < len(g.IDs) && g.IDs[i] == id {
		return i, true
	}
	return slices.BinarySearch(g.IDs, id)
}

// Strategy computes one flow's path over a graph view.
type Strategy interface {
	// Name returns the registry name the strategy was created under.
	Name() string
	// Route computes a loop-free path src..dst over the graph's usable
	// links. It reports ok=false when no path exists; the caller decides
	// what a failed (re)computation means. Implementations must be
	// deterministic and must not mutate the graph.
	Route(g *Graph, flow pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool)
}

// Info describes one registered routing strategy.
type Info struct {
	// Name is the registry key ("bfs", "etx", "kshortest").
	Name string
	// Summary is the one-line description CLI usage strings embed.
	Summary string
	// New creates a strategy instance with the family's fixed
	// parameters.
	New func() Strategy
}

// Strategies is the routing-strategy registry, keyed by Info.Name.
var Strategies = registry.New[Info]("routing strategy", "", "")

// Register adds a strategy to the registry. It panics on an empty name, a
// duplicate, or a nil constructor — registration bugs must fail at init.
func Register(info Info) {
	if info.New == nil {
		panic("routing: Register " + info.Name + " with nil New")
	}
	Strategies.Add(info.Name, info.Summary, info)
}

// IsDefault reports whether name selects the default minimum-hop BFS
// behaviour — the empty string or "bfs". The default keeps every
// builder-installed route exactly as constructed (byte-identical to the
// pre-registry simulator); any other strategy recomputes installed routes
// at wiring time. Every CLI flag, sweep axis and scenario field shares
// this predicate so the spellings can never drift apart.
func IsDefault(name string) bool {
	switch strings.ToLower(name) {
	case "", DefaultName:
		return true
	}
	return false
}

// DefaultName is the registry name of the default strategy.
const DefaultName = "bfs"

// Default returns a default-configured instance of the default strategy
// (minimum-hop BFS) — what a mesh routes with when nothing was selected.
func Default() Strategy {
	info, ok := Strategies.ByName(DefaultName)
	if !ok {
		panic("routing: default strategy " + DefaultName + " is not registered")
	}
	return info.New()
}
