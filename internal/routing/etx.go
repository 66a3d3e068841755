package routing

import (
	"math"

	"ezflow/internal/pkt"
)

// DefaultMinAcked is the measured-sample floor of the registered etx
// strategy: 8 acked packets, so a handful of lucky deliveries cannot
// outvote the calibration.
const DefaultMinAcked = 8

func init() {
	Register(Info{
		Name:    "etx",
		Summary: "minimum expected-transmission-count (ETX) over calibrated loss, measured MAC counters once links carry traffic",
		New:     func() Strategy { return &ETX{MinAcked: DefaultMinAcked} },
	})
}

// ETX is De Couto's expected-transmission-count metric: each link costs
// the expected number of MAC transmissions a delivery needs, and the
// route is the minimum-cost path under Dijkstra. Link cost comes from two
// sources, in priority order:
//
//  1. Measured: once the forwarder's queues toward the next hop have
//     carried at least MinAcked packets, cost = (acked+retries)/acked —
//     the PR 6 per-link observability counters turned into a live link
//     metric, so mid-run route repair avoids links that have proven bad.
//  2. Calibrated: 1/((1-p_fwd)·(1-p_rev)) from the channel's configured
//     erasure probabilities (the paper's Table 1 inputs; data travels
//     forward, the ACK travels back). Loss-free links cost exactly 1, so
//     with no calibration ETX degenerates to minimum hop count.
//
// Determinism: nodes are settled in (cost, then lowest-id) order and
// neighbours relaxed in ascending id order with strict improvement, so
// equal-cost ties always resolve toward the path found first in id order.
type ETX struct {
	// MinAcked is the per-link sample floor below which measured MAC
	// counters are ignored in favour of the calibrated loss (the
	// registered strategy uses DefaultMinAcked).
	MinAcked uint64
}

// Name returns "etx".
func (*ETX) Name() string { return "etx" }

// LinkCost returns the expected transmission count of the directed link
// a->b under this strategy's measurement rules, or +Inf when either
// direction is certain to erase. It is exported so experiments and tests
// can report the cost of an installed path.
func (e *ETX) LinkCost(g *Graph, a, b pkt.NodeID) float64 {
	if g.Measured != nil {
		if acked, retries, ok := g.Measured(a, b); ok && acked >= e.MinAcked {
			return float64(acked+retries) / float64(acked)
		}
	}
	var pf, pr float64
	if g.LinkLoss != nil {
		pf, pr = g.LinkLoss(a, b), g.LinkLoss(b, a)
	}
	if pf >= 1 || pr >= 1 {
		return math.Inf(1)
	}
	return 1 / ((1 - pf) * (1 - pr))
}

// Route runs Dijkstra over the usable links with ETX link costs. The flow
// id is ignored: the cheapest path is flow-independent.
func (e *ETX) Route(g *Graph, _ pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool) {
	n := len(g.IDs)
	si, ok := g.slot(src)
	if !ok {
		return nil, false
	}
	di, ok := g.slot(dst)
	if !ok {
		return nil, false
	}

	const unreached = -1
	dist := make([]float64, n)
	parent := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = unreached
	}
	dist[si] = 0
	parent[si] = int32(si)

	// Relaxing u's out-links touches each neighbour once, so the result
	// does not depend on the order Neighbors yields them in.
	var u int
	relax := func(vid pkt.NodeID) {
		v, ok := g.slot(vid)
		if !ok || done[v] || !g.Usable(g.IDs[u], vid) {
			return
		}
		c := e.LinkCost(g, g.IDs[u], vid)
		if math.IsInf(c, 1) {
			return
		}
		if nd := dist[u] + c; nd < dist[v] {
			dist[v] = nd
			parent[v] = int32(u)
		}
	}
	// O(V²) selection: scan for the unsettled minimum. Topologies top out
	// in the hundreds of nodes, and the ascending scan doubles as the
	// lowest-id tie-break, which a binary heap would not give for free.
	for {
		u = unreached
		for i := 0; i < n; i++ {
			if !done[i] && parent[i] != unreached && (u == unreached || dist[i] < dist[u]) {
				u = i
			}
		}
		if u == unreached {
			return nil, false
		}
		if u == di {
			break
		}
		done[u] = true
		g.neighbors(g.IDs[u], relax)
	}

	return g.treePath(parent, int32(si), int32(di)), true
}

// PathCost sums a path's link costs under this strategy's rules — the
// expected total transmissions one delivery needs end to end.
func (e *ETX) PathCost(g *Graph, path []pkt.NodeID) float64 {
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		sum += e.LinkCost(g, path[i], path[i+1])
	}
	return sum
}
