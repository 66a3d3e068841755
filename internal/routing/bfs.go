package routing

import (
	"slices"

	"ezflow/internal/phy"
	"ezflow/internal/pkt"
)

func init() {
	Register(Info{
		Name:    "bfs",
		Summary: "minimum-hop breadth-first search, lowest-id tie-break (the paper's static agent; default)",
		New:     func() Strategy { return BFS{} },
	})
}

// BFS is the minimum-hop strategy: a breadth-first search from the flow's
// source visiting neighbours in ascending id order, so ties always break
// toward the lowest node id. It is the re-homed legacy mesh.RerouteFlow
// search, byte-identical to the pre-registry behaviour, and ignores link
// quality entirely — every usable link costs one hop.
type BFS struct{}

// Name returns "bfs".
func (BFS) Name() string { return "bfs" }

// Route runs the breadth-first search over g's usable links. The flow id
// is ignored: minimum-hop paths are flow-independent.
//
// The first Route from a source builds that source's whole search tree
// and memoises it on g; later calls from the same source, for any
// destination, only walk the tree. This returns exactly the path an
// early-stopping search would: a node's parent is fixed when the search
// first discovers it, and stopping once dst is found changes nothing
// discovered before it. Downlink flows all start at the gateway, so a
// repair round over them runs one search.
func (BFS) Route(g *Graph, _ pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool) {
	si, ok := g.slot(src)
	if !ok {
		return nil, false
	}
	di, ok := g.slot(dst)
	if !ok || di == si {
		return nil, false
	}
	parent := g.bfsTree(int32(si))
	if parent[di] < 0 {
		return nil, false
	}
	return g.treePath(parent, int32(si), int32(di)), true
}

// treePath reads the path src..dst, given as slots, out of a predecessor
// tree over g's slots (parent[src] == src), allocating only the path.
func (g *Graph) treePath(parent []int32, src, dst int32) []pkt.NodeID {
	hops := 0
	for v := dst; v != src; v = parent[v] {
		hops++
	}
	path := make([]pkt.NodeID, hops+1)
	for v, k := dst, hops; k >= 0; v, k = parent[v], k-1 {
		path[k] = g.IDs[v]
	}
	return path
}

// bfsTrees is a Graph's memo of BFS search trees, one per source.
type bfsTrees struct {
	owner *Graph
	// src[i] is the source slot of the tree parent[i]. parent[i][v] is
	// v's predecessor slot toward the source (the source is its own
	// parent), or -1 when v is unreachable.
	src    []int32
	parent [][]int32
	queue  []int32 // search queue, reused across sources
}

// bfsTree returns the search tree rooted at slot src, building and
// memoising it on first use. Nodes are dequeued in discovery order and
// each one's candidates are tried in ascending id order, so ties break
// toward the lowest id exactly as the all-ids scan did.
func (g *Graph) bfsTree(src int32) []int32 {
	t := g.trees
	if t == nil || t.owner != g {
		t = &bfsTrees{owner: g}
		g.trees = t
	}
	for i, s := range t.src {
		if s == src {
			return t.parent[i]
		}
	}
	parent := make([]int32, len(g.IDs))
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	if t.queue == nil {
		t.queue = make([]int32, 0, len(g.IDs))
	}
	queue := append(t.queue[:0], src)
	var u int32
	visit := func(v pkt.NodeID) {
		vi, ok := g.slot(v)
		if !ok || parent[vi] >= 0 || !g.Usable(g.IDs[u], v) {
			return
		}
		parent[vi] = u
		queue = append(queue, int32(vi))
	}
	for head := 0; head < len(queue); head++ {
		u = queue[head]
		g.neighbors(g.IDs[u], visit)
	}
	t.queue = queue
	t.src = append(t.src, src)
	t.parent = append(t.parent, parent)
	return parent
}

// GatewayTree runs a breadth-first search over the transmission-range
// graph rooted at node 0 (the gateway), visiting neighbours in ascending
// id order so the resulting shortest-path tree is deterministic.
// parent[i] is i's predecessor toward the gateway, or -1 if unreachable.
// Topology builders use it to draw initial gateway-bound routes
// (following the parent chain from a node yields its minimum-hop path to
// the gateway); with Connected it is also the reference connectivity
// test. mesh.RandomDiskLossy screens every draw with a cheaper unordered
// check and builds this tree only for the placement it accepts.
//
// Candidates come from the same spatial hash the PHY neighbor index is
// built with, so a pass is O(N·degree) instead of O(N²). The nodes a
// dequeued node discovers are enqueued in ascending id order, which
// keeps the visit order — and with it the resulting tree — identical to
// the all-pairs scan.
func GatewayTree(pos []phy.Position, txRange float64) []int {
	n := len(pos)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[0] = 0
	reach := phy.NewReach(txRange)
	g := phy.NewSpatialGrid(pos, txRange)
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	var cand []int32
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		cand = g.Near(pos[u], cand[:0])
		fresh := len(queue)
		for _, v32 := range cand {
			v := int(v32)
			if parent[v] < 0 && reach.Within(pos[u], pos[v]) {
				parent[v] = u
				queue = append(queue, v)
			}
		}
		slices.Sort(queue[fresh:])
	}
	return parent
}

// Connected reports whether every node reached the gateway in a
// GatewayTree pass.
func Connected(parent []int) bool {
	for _, p := range parent {
		if p < 0 {
			return false
		}
	}
	return true
}
