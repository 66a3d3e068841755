// Package plot renders time series as ASCII charts, so the command-line
// tools can draw the paper's figures (buffer evolution, throughput, delay,
// contention-window staircases) directly in a terminal without any
// plotting dependency.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/stats"
)

// Options controls chart geometry.
type Options struct {
	Width  int // plot area columns (default 72)
	Height int // plot area rows (default 16)
	YLabel string
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	return o
}

// markers are assigned to series in order.
var markers = []byte{'*', '+', 'o', 'x', '#', '@'}

// Chart renders one or more series over a shared time axis. Series are
// downsampled by bucketing points per column and averaging within the
// bucket, which preserves the shapes of the paper's figures.
func Chart(title string, opts Options, series ...*stats.Series) string {
	opts = opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	nonEmpty := 0
	for _, s := range series {
		if s != nil && s.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}

	// Shared ranges.
	tMin, tMax := math.Inf(1), math.Inf(-1)
	vMin, vMax := 0.0, math.Inf(-1) // y axis anchored at zero
	for _, s := range series {
		if s == nil {
			continue
		}
		for _, p := range s.Points {
			ts := p.T.Seconds()
			if ts < tMin {
				tMin = ts
			}
			if ts > tMax {
				tMax = ts
			}
			if p.V > vMax {
				vMax = p.V
			}
			if p.V < vMin {
				vMin = p.V
			}
		}
	}
	if vMax <= vMin {
		vMax = vMin + 1
	}
	if tMax <= tMin {
		tMax = tMin + 1
	}

	// Rasterise.
	grid := make([][]byte, opts.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opts.Width))
	}
	for si, s := range series {
		if s == nil || s.Len() == 0 {
			continue
		}
		mark := markers[si%len(markers)]
		colSum := make([]float64, opts.Width)
		colN := make([]int, opts.Width)
		for _, p := range s.Points {
			c := int((p.T.Seconds() - tMin) / (tMax - tMin) * float64(opts.Width-1))
			colSum[c] += p.V
			colN[c]++
		}
		for c := 0; c < opts.Width; c++ {
			if colN[c] == 0 {
				continue
			}
			v := colSum[c] / float64(colN[c])
			r := int((v - vMin) / (vMax - vMin) * float64(opts.Height-1))
			row := opts.Height - 1 - r
			grid[row][c] = mark
		}
	}

	// Emit with a y-axis.
	for r := 0; r < opts.Height; r++ {
		frac := float64(opts.Height-1-r) / float64(opts.Height-1)
		val := vMin + frac*(vMax-vMin)
		fmt.Fprintf(&b, "%9.1f |%s\n", val, string(grid[r]))
	}
	fmt.Fprintf(&b, "%9s +%s\n", "", strings.Repeat("-", opts.Width))
	fmt.Fprintf(&b, "%9s  %-*.1f%*.1f s\n", "", opts.Width/2, tMin, opts.Width-opts.Width/2, tMax)
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "%9s  y: %s", "", opts.YLabel)
		for si, s := range series {
			if s == nil {
				continue
			}
			fmt.Fprintf(&b, "   %c %s", markers[si%len(markers)], s.Name)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CWStaircase renders a contention-window trace as a log2 staircase, the
// form of the paper's Figures 8 and 11.
func CWStaircase(title string, opts Options, traces map[string][]ez.CWPoint) string {
	series := make([]*stats.Series, 0, len(traces))
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic rendering
	for _, name := range names {
		s := &stats.Series{Name: name}
		for _, p := range traces[name] {
			s.Add(p.At, math.Log2(float64(p.CW)))
		}
		series = append(series, s)
	}
	if opts.YLabel == "" {
		opts.YLabel = "log2(cw)"
	}
	return Chart(title, opts, series...)
}
