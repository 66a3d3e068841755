package plot

import (
	"strings"
	"testing"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/sim"
	"ezflow/internal/stats"
)

func ramp(name string, n int, slope float64) *stats.Series {
	s := &stats.Series{Name: name}
	for i := 0; i < n; i++ {
		s.Add(sim.Time(i)*sim.Second, float64(i)*slope)
	}
	return s
}

func TestChartBasics(t *testing.T) {
	out := Chart("buffer evolution", Options{Width: 40, Height: 8, YLabel: "pkts"},
		ramp("N1", 100, 0.5))
	if !strings.Contains(out, "buffer evolution") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "pkts") || !strings.Contains(out, "N1") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data markers rendered")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + time labels + legend.
	if len(lines) != 1+8+1+1+1 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestChartMultipleSeries(t *testing.T) {
	out := Chart("two", Options{Width: 30, Height: 6},
		ramp("a", 50, 1), ramp("b", 50, 0.2))
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("markers for both series missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("empty", Options{}, &stats.Series{}, nil)
	if !strings.Contains(out, "no data") {
		t.Fatal("empty chart not flagged")
	}
}

func TestChartFlatSeries(t *testing.T) {
	s := &stats.Series{Name: "flat"}
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Second, 5)
	}
	out := Chart("flat", Options{Width: 20, Height: 5}, s)
	if !strings.Contains(out, "*") {
		t.Fatal("flat series rendered nothing")
	}
}

func TestChartSinglePoint(t *testing.T) {
	s := &stats.Series{Name: "pt"}
	s.Add(sim.Second, 3)
	out := Chart("point", Options{Width: 10, Height: 4}, s)
	if !strings.Contains(out, "*") {
		t.Fatal("single point not rendered")
	}
}

func TestCWStaircase(t *testing.T) {
	traces := map[string][]ez.CWPoint{
		"N0->N1": {{At: 0, CW: 32}, {At: 100 * sim.Second, CW: 64}, {At: 200 * sim.Second, CW: 128}},
		"N1->N2": {{At: 0, CW: 32}},
	}
	out := CWStaircase("cw", Options{Width: 30, Height: 6}, traces)
	if !strings.Contains(out, "log2(cw)") {
		t.Fatal("missing y label")
	}
	if !strings.Contains(out, "N0->N1") || !strings.Contains(out, "N1->N2") {
		t.Fatal("missing trace names")
	}
}

func TestChartDeterministic(t *testing.T) {
	traces := map[string][]ez.CWPoint{
		"b": {{At: 0, CW: 32}}, "a": {{At: 0, CW: 64}}, "c": {{At: 0, CW: 16}},
	}
	x := CWStaircase("t", Options{}, traces)
	for i := 0; i < 5; i++ {
		if CWStaircase("t", Options{}, traces) != x {
			t.Fatal("staircase rendering not deterministic")
		}
	}
}
