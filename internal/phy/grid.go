// Spatial hash grid over node positions. Building the neighbor index (and
// mesh's random-disk connectivity search) needs "all nodes within r of p"
// queries; a uniform grid with cell size r answers them from the 3×3 cell
// neighborhood, turning an O(N²) all-pairs pass into O(N·degree) for any
// spatially bounded deployment.
package phy

import (
	"math"
	"slices"
)

// SpatialGrid is a uniform spatial hash over a slice of positions.
// Cells are square with side equal to the query radius, so every point
// within that radius of a probe lies in the probe's 3×3 cell
// neighborhood. The cells share one flat index array, each cell a run of
// ascending indices; Near therefore returns candidates that are sorted
// per cell but not globally — callers that need ascending order (the
// repository's determinism convention for broadcast iteration) order the
// result themselves (GatewayTree sorts, buildIndex fills its lists in
// slot order).
type SpatialGrid struct {
	cell       float64
	minX, minY float64
	cols, rows int
	// start[c] and start[c+1] bound cell c's run in idx.
	start []int32
	idx   []int32
}

// maxGridCellsPerAxis bounds grid memory when the deployment extent is
// huge relative to the query radius; past the cap, cells simply get
// coarser (queries stay correct, just less selective).
const maxGridCellsPerAxis = 1024

// NewSpatialGrid builds a grid over pos for queries of the given radius.
// A non-positive or non-finite radius yields a single cell holding every
// point (correct, no pruning).
func NewSpatialGrid(pos []Position, radius float64) *SpatialGrid {
	g := &SpatialGrid{}
	g.reset(pos, radius)
	return g
}

// reset re-buckets g over pos for queries of the given radius, reusing
// its storage: a counting sort of the indices by cell, so each cell's run
// ascends.
func (g *SpatialGrid) reset(pos []Position, radius float64) {
	g.cell, g.cols, g.rows, g.minX, g.minY = radius, 1, 1, 0, 0
	if len(pos) > 0 {
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
	}
	nc := g.cols * g.rows
	g.start = slices.Grow(g.start[:0], nc+1)[:nc+1]
	clear(g.start)
	for _, p := range pos {
		g.start[g.cellIndex(p)+1]++
	}
	for c := range nc {
		g.start[c+1] += g.start[c]
	}
	// Fill each cell at its cursor start[c], which leaves start[c] at the
	// cell's end, the next cell's start; shifting restores the bounds.
	g.idx = slices.Grow(g.idx[:0], len(pos))[:len(pos)]
	for i, p := range pos {
		c := g.cellIndex(p)
		g.idx[g.start[c]] = int32(i)
		g.start[c]++
	}
	copy(g.start[1:], g.start[:nc])
	g.start[0] = 0
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
	size := func(x, y int) int {
		c := y*g.cols + x
		return int(g.start[c+1] - g.start[c])
	}
	total := 0
	for y := range g.rows {
		for x := range g.cols {
			k := size(x, y)
			if k == 0 {
				continue
			}
			near := 0
			for ny := max(y-1, 0); ny <= min(y+1, g.rows-1); ny++ {
				for nx := max(x-1, 0); nx <= min(x+1, g.cols-1); nx++ {
					near += size(nx, ny)
				}
			}
			total += k * (near - 1)
		}
	}
	return total / 2
}

// Near appends to dst the indices of every stored position in the 3×3
// cell neighborhood of p — a superset of the positions within the query
// radius of p — and returns the extended slice. dst is reused across
// calls to keep the build loop allocation-free after warmup.
func (g *SpatialGrid) Near(p Position, dst []int32) []int32 {
	return g.nearAbove(p, -1, dst)
}

// nearAbove is Near restricted to the indices above i: each cell's run
// ascends, so a binary search skips the rest.
func (g *SpatialGrid) nearAbove(p Position, i int32, dst []int32) []int32 {
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
			c := y*g.cols + x
			run := g.idx[g.start[c]:g.start[c+1]]
			k, _ := slices.BinarySearch(run, i+1)
			dst = append(dst, run[k:]...)
		}
	}
	return dst
}
