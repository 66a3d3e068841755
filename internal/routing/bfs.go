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
		New:     func(Options) Strategy { return BFS{} },
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
func (BFS) Route(g *Graph, _ pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool) {
	parent := map[pkt.NodeID]pkt.NodeID{src: src}
	queue := []pkt.NodeID{src}
	found := false
	for len(queue) > 0 && !found {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.IDs {
			if _, seen := parent[v]; seen || !g.Usable(u, v) {
				continue
			}
			parent[v] = u
			if v == dst {
				found = true
				break
			}
			queue = append(queue, v)
		}
	}
	if !found {
		return nil, false
	}
	var rev []pkt.NodeID
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	path := make([]pkt.NodeID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, true
}

// GatewayTree runs a breadth-first search over the transmission-range
// graph rooted at node 0 (the gateway), visiting neighbours in ascending
// id order so the resulting shortest-path tree is deterministic.
// parent[i] is i's predecessor toward the gateway, or -1 if unreachable.
// Topology builders use it to draw initial gateway-bound routes
// (following the parent chain from a node yields its minimum-hop path to
// the gateway); with Connected it is also the reference connectivity
// test. mesh.RandomDisk builds this tree for its first draw and for the
// placement it accepts, and screens the draws in between with a cheaper
// unordered check.
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
			if parent[v] < 0 && pos[u].Dist(pos[v]) <= txRange {
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
