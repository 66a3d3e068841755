// Generated topologies beyond the paper's own networks: regular grids and
// seeded random-disk deployments. Both builders validate connectivity —
// every installed route hop must be within transmission range — so a bad
// parameter choice fails loudly at build time instead of silently
// delivering nothing.
package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// Grid builds a w×h lattice at DefaultHopDist spacing with the gateway N0
// at the origin; node (x, y) has id y*w + x. Two gateway-bound flows are
// installed: flow 1 from the far corner (w-1, h-1), walking its row down
// to column 0 and then down the column to the gateway, and — when the
// grid is two-dimensional — flow 2 from corner (w-1, 0) straight along
// the bottom row. The two paths share only the gateway, so they contend
// by radio proximity rather than by queue merging (the complement of the
// paper's Scenario 1).
func Grid(eng *sim.Engine, w, h int, phyCfg phy.Config, macCfg mac.Config) *Mesh {
	if w < 1 || h < 1 || w*h < 2 {
		panic(fmt.Sprintf("mesh: grid %dx%d needs at least 2 nodes", w, h))
	}
	m := New(eng, phyCfg, macCfg)
	d := float64(DefaultHopDist)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m.AddNode(pkt.NodeID(y*w+x), phy.Position{X: float64(x) * d, Y: float64(y) * d})
		}
	}

	// Flow 1: far corner -> along its row to column 0 -> down to N0.
	var p1 []pkt.NodeID
	for x := w - 1; x >= 0; x-- {
		p1 = append(p1, pkt.NodeID((h-1)*w+x))
	}
	for y := h - 2; y >= 0; y-- {
		p1 = append(p1, pkt.NodeID(y*w))
	}
	m.SetRoute(1, p1)

	// Flow 2: bottom-right corner -> along the bottom row to N0. Only in
	// true 2-D grids; in a 1×n or n×1 grid it would duplicate flow 1.
	if w > 1 && h > 1 {
		var p2 []pkt.NodeID
		for x := w - 1; x >= 0; x-- {
			p2 = append(p2, pkt.NodeID(x))
		}
		m.SetRoute(2, p2)
	}
	m.ValidateRoutes()
	return m
}

// DefaultDiskRadius returns the disk radius RandomDiskLossy uses when the
// caller passes radius <= 0: (DefaultHopDist/2)·√n keeps the expected
// node density — and with it the interference regime — constant as n
// grows, and dense enough that a uniform placement is connected at the
// default 250 m transmission range with overwhelming probability.
func DefaultDiskRadius(n int) float64 {
	return DefaultHopDist / 2 * math.Sqrt(float64(n))
}

// randomDiskAttempts bounds the resampling loop before RandomDiskLossy gives
// up on finding a connected placement.
const randomDiskAttempts = 256

// RandomDiskLossy builds an n-node deployment with the gateway N0 at the
// centre of a disk of the given radius (DefaultDiskRadius(n) if <= 0) and
// nodes N1..N(n-1) placed uniformly at random from the given seed. The
// placement is resampled until the transmission-range graph is connected
// (panicking after a bounded number of attempts, which signals that the
// radius is too large for n nodes to bridge). One flow is installed: flow
// 1 from the node farthest from the gateway, routed along a BFS
// shortest-hop path with deterministic (lowest-id) tie-breaking, so a
// fixed (n, radius, seed) triple always produces the identical mesh.
//
// The seed only shapes the topology; it is deliberately drawn from its
// own generator so placement never perturbs the engine's event RNG.
//
// A positive edgeLoss calibrates an edge-of-range loss model over every
// link (ApplyEdgeLoss with that maximum probability): links near the
// transmission-range limit erase with probability ramping up to edgeLoss,
// the heterogeneous link quality a real deployment measures; 0 leaves
// every link lossless. The installed route is still the minimum-hop
// gateway path — a link-quality routing strategy (Config.Routing "etx")
// recomputes it against the calibrated losses at wiring.
func RandomDiskLossy(eng *sim.Engine, n int, radius float64, seed int64, edgeLoss float64, phyCfg phy.Config, macCfg mac.Config) *Mesh {
	if n < 2 {
		panic("mesh: random disk needs at least 2 nodes")
	}
	if radius <= 0 {
		radius = DefaultDiskRadius(n)
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]phy.Position, n)
	check := newPlacementCheck(n, radius, phyCfg.TxRange)
	connected := false
	for try := 0; try < randomDiskAttempts && !connected; try++ {
		samplePositions(rng, pos, radius)
		connected = check.connected(pos)
	}
	if !connected {
		panic(fmt.Sprintf("mesh: no connected %d-node placement within radius %.0f m after %d attempts (radius too large for the %g m range?)",
			n, radius, randomDiskAttempts, phyCfg.TxRange))
	}
	// Every draw is screened by placementCheck; only the accepted one
	// pays for the deterministic tree its route is read from.
	parent := routing.GatewayTree(pos, phyCfg.TxRange)
	if !routing.Connected(parent) {
		panic("mesh: placementCheck accepted a placement the gateway tree does not connect")
	}

	m := New(eng, phyCfg, macCfg)
	for i, p := range pos {
		m.AddNode(pkt.NodeID(i), p)
	}
	if edgeLoss > 0 {
		m.ApplyEdgeLoss(edgeLoss)
	}

	// Flow 1: farthest node (lowest id on ties) back to the gateway along
	// the BFS tree.
	far := 0
	for i := 1; i < n; i++ {
		di, df := pos[i].Dist(pos[0]), pos[far].Dist(pos[0])
		if di > df {
			far = i
		}
	}
	var path []pkt.NodeID
	for i := far; ; i = parent[i] {
		path = append(path, pkt.NodeID(i))
		if i == 0 {
			break
		}
	}
	m.SetRoute(1, path)
	m.ValidateRoutes()
	return m
}

// samplePositions fills pos with the gateway at the origin plus len(pos)-1
// points uniform over the disk (r = R·√u gives an area-uniform radius).
// math.Sincos gives, bit for bit, the math.Cos and math.Sin of the angle
// at about three quarters of their cost (TestSincosMatchesSinCos).
func samplePositions(rng *rand.Rand, pos []phy.Position, radius float64) {
	pos[0] = phy.Position{}
	for i := 1; i < len(pos); i++ {
		r := radius * math.Sqrt(rng.Float64())
		sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
		pos[i] = phy.Position{X: r * cos, Y: r * sin}
	}
}

// placementCheck decides whether a sampled placement's transmission-range
// graph is connected: the answer routing.Connected(routing.GatewayTree)
// gives, at a cost the resampling loop can afford on the many placements
// it rejects. One check serves every attempt of a RandomDiskLossy call:
//   - its cell grid covers the whole disk, so only the bucketing changes
//     between attempts, and no buffer is allocated after the first;
//   - it first looks for an isolated node, which most placements it
//     rejects have (about four in five of the rejected 400-node draws),
//     scanning each node's own cell before the eight around it;
//   - its search visits nodes in whatever order the cells yield them,
//     builds no tree and sorts nothing, swaps each reached node out of
//     its cell so later scans see only unreached candidates, and stops
//     as soon as the last node is reached;
//   - its range test is the builders' phy.Reach, which settles all but
//     the boundary pairs on squared distances.
type placementCheck struct {
	reach        phy.Reach
	radius, cell float64 // the disk's radius and the cell side (> txRange)
	side         int     // cells per axis over the disk's bounding square
	// Cell c's unreached nodes are items[start[c]:end[c]]; node i sits in
	// cell cellOf[i] at items[at[i]].
	start, end    []int32
	items, at     []int32
	cellOf, queue []int32
}

// newPlacementCheck sizes a check for n-node placements over a disk of
// the given radius centred at the origin. Cells are a hair wider than
// txRange, so every in-range pair lies in adjacent cells even after the
// cell arithmetic rounds, and are coarsened where txRange-wide cells
// would number more than about 4n. A degenerate radius or range gets one
// cell.
func newPlacementCheck(n int, radius, txRange float64) *placementCheck {
	pc := &placementCheck{reach: phy.NewReach(txRange), radius: radius, cell: 1, side: 1}
	span := 2 * radius
	if txRange > 0 && span > 0 && !math.IsInf(span, 1) && !math.IsInf(txRange, 1) {
		pc.side = min(int(span/txRange)+1, 2*int(math.Sqrt(float64(n)))+1)
		pc.cell = math.Max(txRange, span/float64(pc.side)) * (1 + 1e-9)
	}
	cells := pc.side * pc.side
	pc.start, pc.end = make([]int32, cells), make([]int32, cells)
	pc.items, pc.at = make([]int32, n), make([]int32, n)
	pc.cellOf, pc.queue = make([]int32, n), make([]int32, 0, n)
	return pc
}

// axis maps a coordinate to its cell column or row, clamped onto the grid.
func (pc *placementCheck) axis(v float64) int {
	c := int((v + pc.radius) / pc.cell)
	return max(0, min(c, pc.side-1))
}

// around returns the cells adjacent to p's cell (and p's own): every
// node within txRange of p is bucketed in one of them.
func (pc *placementCheck) around(p phy.Position, dst []int) []int {
	cx, cy := pc.axis(p.X), pc.axis(p.Y)
	for y := max(cy-1, 0); y <= min(cy+1, pc.side-1); y++ {
		for x := max(cx-1, 0); x <= min(cx+1, pc.side-1); x++ {
			dst = append(dst, y*pc.side+x)
		}
	}
	return dst
}

// connected reports whether every node of pos is reachable from node 0
// over links with pos[u].Dist(pos[v]) <= txRange.
func (pc *placementCheck) connected(pos []phy.Position) bool {
	// Bucket the nodes: count per cell, then place them.
	clear(pc.end)
	for i, p := range pos {
		c := int32(pc.axis(p.Y)*pc.side + pc.axis(p.X))
		pc.cellOf[i] = c
		pc.end[c]++
	}
	var sum int32
	for c, k := range pc.end {
		pc.start[c], pc.end[c] = sum, sum
		sum += k
	}
	for i, c := range pc.cellOf {
		pc.items[pc.end[c]], pc.at[i] = int32(i), pc.end[c]
		pc.end[c]++
	}

	var cells [9]int
	for i, u := range pos {
		if !pc.hasNeighbor(int32(i), u, pos, cells[:0]) {
			return false
		}
	}

	queue := append(pc.queue[:0], 0)
	pc.take(0)
	n := len(pos)
	for head := 0; head < len(queue) && len(queue) < n; head++ {
		u := pos[queue[head]]
		for _, c := range pc.around(u, cells[:0]) {
			for k := pc.start[c]; k < pc.end[c]; {
				v := pc.items[k]
				if !pc.reach.Within(u, pos[v]) {
					k++
					continue
				}
				pc.take(v) // moves another unreached node into slot k
				queue = append(queue, v)
			}
		}
	}
	pc.queue = queue
	return len(queue) == n
}

// hasNeighbor reports whether node i at u has any other node in range.
// Its own cell, which most nodes share with a neighbor, is scanned first.
func (pc *placementCheck) hasNeighbor(i int32, u phy.Position, pos []phy.Position, cells []int) bool {
	own := int(pc.cellOf[i])
	if pc.cellHasNeighbor(own, i, u, pos) {
		return true
	}
	for _, c := range pc.around(u, cells) {
		if c != own && pc.cellHasNeighbor(c, i, u, pos) {
			return true
		}
	}
	return false
}

// cellHasNeighbor reports whether cell c holds a node other than i within
// range of u.
func (pc *placementCheck) cellHasNeighbor(c int, i int32, u phy.Position, pos []phy.Position) bool {
	for _, v := range pc.items[pc.start[c]:pc.end[c]] {
		if v != i && pc.reach.Within(u, pos[v]) {
			return true
		}
	}
	return false
}

// take removes node v from its cell's unreached nodes.
func (pc *placementCheck) take(v int32) {
	c := pc.cellOf[v]
	last := pc.end[c] - 1
	w := pc.items[last]
	pc.items[pc.at[v]], pc.at[w] = w, pc.at[v]
	pc.end[c] = last
}

// ApplyEdgeLoss calibrates a deterministic edge-of-range loss model over
// every in-range directed link: a link of length d erases with
// probability maxLoss·((d-R/2)/(R/2))² for d beyond half the transmission
// range R, and 0 below it. Short links stay clean, marginal links near
// the range limit approach maxLoss — the SNR-driven quality gradient real
// deployments measure (the paper's Table 1 testbed losses range 0–43%).
// Candidate pairs come from a spatial grid with cells of side R, so the
// pass is O(N·degree); each link's loss depends only on its own length,
// so the resulting loss table is a pure function of the placement.
func (m *Mesh) ApplyEdgeLoss(maxLoss float64) {
	if maxLoss <= 0 {
		return
	}
	ids := m.Ch.NodeIDs()
	r := m.Ch.Config().TxRange
	half := r / 2
	pos := make([]phy.Position, len(ids))
	for i, id := range ids {
		pos[i] = m.Ch.Position(id)
	}
	g := phy.NewSpatialGrid(pos, r)
	var cand []int32
	for i, a := range ids {
		cand = g.Near(pos[i], cand[:0])
		for _, j := range cand {
			if int(j) == i {
				continue
			}
			d := pos[i].Dist(pos[j])
			if d > r || d <= half {
				continue
			}
			frac := (d - half) / half
			m.Ch.SetLinkLoss(a, ids[j], maxLoss*frac*frac)
		}
	}
}

// CheckRoutes reports the first installed route with a hop outside the
// channel's transmission range, or nil when every route is valid. It is
// the non-panicking half of the route-validity contract: builders assert
// with ValidateRoutes (a bad construction is a programming error), while
// callers probing a mesh mid-run — after repairs kept a broken route in
// place, say — get an error they can handle.
func (m *Mesh) CheckRoutes() error {
	flows := make([]pkt.FlowID, 0, len(m.routes))
	for f := range m.routes {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		route := m.routes[f]
		for i := 0; i < len(route)-1; i++ {
			if !m.Ch.InTxRange(route[i], route[i+1]) {
				return fmt.Errorf("mesh: flow %v hop %v->%v exceeds transmission range", f, route[i], route[i+1])
			}
		}
	}
	return nil
}

// ValidateRoutes asserts CheckRoutes, panicking with the offending link.
// Topology builders call it after SetRoute so a disconnected layout fails
// at construction time.
func (m *Mesh) ValidateRoutes() {
	if err := m.CheckRoutes(); err != nil {
		panic(err.Error())
	}
}
