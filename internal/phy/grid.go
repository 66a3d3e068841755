// Spatial hash grid over node positions. Building the neighbor index (and
// mesh's random-disk connectivity search) needs "all nodes within r of p"
// queries; a uniform grid with cell size r answers them from the 3×3 cell
// neighborhood, turning an O(N²) all-pairs pass into O(N·degree) for any
// spatially bounded deployment.
package phy

import "math"

// SpatialGrid is a uniform spatial hash over a fixed slice of positions.
// Cells are square with side equal to the query radius, so every point
// within that radius of a probe lies in the probe's 3×3 cell
// neighborhood. Within a cell, indices are stored ascending; Near
// therefore returns candidates that are sorted per cell but not
// globally — callers that need ascending order (the repository's
// determinism convention for broadcast iteration) order the result
// themselves (GatewayTree sorts, MoveNode reads a slot bitset back).
type SpatialGrid struct {
	cell       float64
	minX, minY float64
	cols, rows int
	cells      [][]int32
}

// maxGridCellsPerAxis bounds grid memory when the deployment extent is
// huge relative to the query radius; past the cap, cells simply get
// coarser (queries stay correct, just less selective).
const maxGridCellsPerAxis = 1024

// NewSpatialGrid builds a grid over pos for queries of the given radius.
// A non-positive or non-finite radius yields a single cell holding every
// point (correct, no pruning).
func NewSpatialGrid(pos []Position, radius float64) *SpatialGrid {
	g := &SpatialGrid{cell: radius, cols: 1, rows: 1}
	if len(pos) == 0 {
		g.cells = make([][]int32, 1)
		return g
	}
	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	for _, p := range pos[1:] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	if radius > 0 && !math.IsInf(radius, 1) {
		g.cols = gridAxisCells(maxX-minX, radius)
		g.rows = gridAxisCells(maxY-minY, radius)
		// Honour the cap by coarsening the cells, never by dropping area.
		g.cell = math.Max(radius, math.Max((maxX-minX)/float64(g.cols), (maxY-minY)/float64(g.rows))+1e-9)
	}
	g.cells = make([][]int32, g.cols*g.rows)
	for i, p := range pos {
		c := g.cellIndex(p)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

// gridAxisCells sizes one axis: enough cells of side `cell` to cover the
// extent, at least 1, at most maxGridCellsPerAxis.
func gridAxisCells(extent, cell float64) int {
	n := int(extent/cell) + 1
	if n < 1 {
		n = 1
	}
	if n > maxGridCellsPerAxis {
		n = maxGridCellsPerAxis
	}
	return n
}

// cellIndex maps a position to its cell, clamping onto the grid so
// probes outside the built extent still resolve.
func (g *SpatialGrid) cellIndex(p Position) int {
	cx := g.axisCell(p.X - g.minX)
	cy := g.axisCell(p.Y - g.minY)
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

func (g *SpatialGrid) axisCell(d float64) int {
	if d <= 0 || g.cell <= 0 {
		return 0
	}
	return int(d / g.cell)
}

// candidatePairs returns how many unordered pairs of distinct stored
// points lie in each other's 3×3 cell neighborhood: the pairs Near can
// report, and so an upper bound on the pairs within the query radius.
func (g *SpatialGrid) candidatePairs() int {
	total := 0
	for y := range g.rows {
		for x := range g.cols {
			k := len(g.cells[y*g.cols+x])
			if k == 0 {
				continue
			}
			near := 0
			for ny := max(y-1, 0); ny <= min(y+1, g.rows-1); ny++ {
				for nx := max(x-1, 0); nx <= min(x+1, g.cols-1); nx++ {
					near += len(g.cells[ny*g.cols+nx])
				}
			}
			total += k * (near - 1)
		}
	}
	return total / 2
}

// Move re-buckets index i from its cell at `from` to its cell at `to`,
// keeping cell contents ascending. Clamping makes the grid closed under
// movement: a point that drifts outside the built extent lands in the
// nearest edge cell, and because cellIndex is monotone and 1-Lipschitz
// in cell units per axis, any probe within the query radius of the true
// position still finds it in its 3×3 neighborhood. Cells only get less
// selective (never incorrect) as points leave the original extent.
func (g *SpatialGrid) Move(i int32, from, to Position) {
	a, b := g.cellIndex(from), g.cellIndex(to)
	if a == b {
		return
	}
	ca := g.cells[a]
	k := lowerBound32(ca, i)
	if k >= len(ca) || ca[k] != i {
		panic("phy: SpatialGrid.Move of unbucketed index")
	}
	copy(ca[k:], ca[k+1:])
	g.cells[a] = ca[:len(ca)-1]
	cb := append(g.cells[b], 0)
	k = lowerBound32(cb[:len(cb)-1], i)
	copy(cb[k+1:], cb[k:])
	cb[k] = i
	g.cells[b] = cb
}

// lowerBound32 returns the first index in the ascending slice s whose
// value is >= v (len(s) when none is).
func lowerBound32(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Near appends to dst the indices of every stored position in the 3×3
// cell neighborhood of p — a superset of the positions within the query
// radius of p — and returns the extended slice. dst is reused across
// calls to keep the build loop allocation-free after warmup.
func (g *SpatialGrid) Near(p Position, dst []int32) []int32 {
	cx := g.axisCell(p.X - g.minX)
	cy := g.axisCell(p.Y - g.minY)
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			dst = append(dst, g.cells[y*g.cols+x]...)
		}
	}
	return dst
}
