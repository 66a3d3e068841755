package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

func TestGridLayoutAndRoutes(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Grid(eng, 4, 3, phy.DefaultConfig(), mac.DefaultConfig())
	if got := len(m.Nodes()); got != 12 {
		t.Fatalf("node count = %d, want 12", got)
	}
	// Flow 1: far corner (3,2) = N11 across the top row then down column 0.
	want1 := []pkt.NodeID{11, 10, 9, 8, 4, 0}
	r1 := m.Route(1)
	if fmt.Sprint(r1) != fmt.Sprint(want1) {
		t.Fatalf("flow 1 route = %v, want %v", r1, want1)
	}
	// Flow 2: bottom-right corner along the bottom row.
	want2 := []pkt.NodeID{3, 2, 1, 0}
	if r2 := m.Route(2); fmt.Sprint(r2) != fmt.Sprint(want2) {
		t.Fatalf("flow 2 route = %v, want %v", r2, want2)
	}
	// Every hop within transmission range (ValidateRoutes ran at build).
	for _, f := range m.Flows() {
		route := m.Route(f)
		for i := 0; i < len(route)-1; i++ {
			if !m.Ch.InTxRange(route[i], route[i+1]) {
				t.Fatalf("flow %v hop %v->%v out of range", f, route[i], route[i+1])
			}
		}
	}
}

func TestGridDegenerate(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Grid(eng, 5, 1, phy.DefaultConfig(), mac.DefaultConfig())
	if len(m.Flows()) != 1 {
		t.Fatalf("1-D grid installed %d flows, want 1 (flow 2 would duplicate it)", len(m.Flows()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("1x1 grid did not panic")
		}
	}()
	Grid(sim.NewEngine(1), 1, 1, phy.DefaultConfig(), mac.DefaultConfig())
}

// fingerprint captures a mesh's geometry and routing for comparison.
func fingerprint(m *Mesh) string {
	s := ""
	for _, n := range m.Nodes() {
		p := m.Ch.Position(n.ID)
		s += fmt.Sprintf("%v(%.3f,%.3f);", n.ID, p.X, p.Y)
	}
	for _, f := range m.Flows() {
		s += fmt.Sprintf("%v=%v;", f, m.Route(f))
	}
	return s
}

func TestRandomDiskDeterminism(t *testing.T) {
	build := func(seed int64) string {
		return fingerprint(RandomDiskLossy(sim.NewEngine(1), 16, 0, seed, 0,
			phy.DefaultConfig(), mac.DefaultConfig()))
	}
	if build(7) != build(7) {
		t.Fatal("same seed produced different random-disk topologies")
	}
	if build(7) == build(8) {
		t.Fatal("different seeds produced identical topologies (suspicious)")
	}
}

func TestRandomDiskConnectivity(t *testing.T) {
	cfg := phy.DefaultConfig()
	for seed := int64(1); seed <= 20; seed++ {
		m := RandomDiskLossy(sim.NewEngine(1), 12, 0, seed, 0, cfg, mac.DefaultConfig())
		route := m.Route(1)
		if len(route) < 2 {
			t.Fatalf("seed %d: flow 1 has no multi-hop route", seed)
		}
		if route[len(route)-1] != 0 {
			t.Fatalf("seed %d: route does not end at the gateway", seed)
		}
		for i := 0; i < len(route)-1; i++ {
			if !m.Ch.InTxRange(route[i], route[i+1]) {
				t.Fatalf("seed %d: hop %v->%v exceeds tx range", seed, route[i], route[i+1])
			}
		}
	}
}

func TestValidateRoutesPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	m.AddNode(0, phy.Position{})
	m.AddNode(1, phy.Position{X: 1000}) // far outside the 250 m range
	m.SetRoute(1, []pkt.NodeID{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("ValidateRoutes accepted an out-of-range hop")
		}
	}()
	m.ValidateRoutes()
}

// TestPlacementCheckMatchesGatewayTree pins the resampling loop's cheap
// connectivity check to its oracle, routing.Connected over the
// deterministic gateway tree, on about a thousand placements drawn near
// the connectivity threshold (a mix of connected and disconnected ones),
// with one check reused across all placements of a size as the loop
// reuses it across attempts.
func TestPlacementCheckMatchesGatewayTree(t *testing.T) {
	r := phy.DefaultConfig().TxRange
	rng := rand.New(rand.NewSource(1))
	var connected, disconnected int
	for _, tc := range []struct {
		n     int
		scale float64 // of DefaultDiskRadius
		draws int
	}{
		{12, 1.2, 250}, {50, 1.2, 250}, {200, 0.9, 250}, {400, 0.8, 250},
	} {
		radius := tc.scale * DefaultDiskRadius(tc.n)
		check := newPlacementCheck(tc.n, radius, r)
		pos := make([]phy.Position, tc.n)
		for i := 0; i < tc.draws; i++ {
			samplePositions(rng, pos, radius)
			want := routing.Connected(routing.GatewayTree(pos, r))
			if got := check.connected(pos); got != want {
				t.Fatalf("n=%d draw %d: check says connected=%v, gateway tree says %v", tc.n, i, got, want)
			}
			if want {
				connected++
			} else {
				disconnected++
			}
		}
	}
	t.Logf("%d connected, %d disconnected", connected, disconnected)
	if connected < 100 || disconnected < 100 {
		t.Errorf("draws not near the threshold: %d connected, %d disconnected", connected, disconnected)
	}
}

// TestPlacementCheckRangeBoundary pins the check's range predicate at the
// float boundary: a pair exactly TxRange apart is linked, a pair one ulp
// beyond it is not, whichever way the pair is oriented. It then runs a
// table of pairs at the limit, one ulp either side of it and at
// limit·(1 ± 1e-10), along the axes and diagonals and away from the
// origin, through every build-time range test (phy.Reach itself, the
// check, routing.GatewayTree and phy.Channel.InTxRange), and holds each
// to math.Hypot(dx, dy) <= limit.
func TestPlacementCheckRangeBoundary(t *testing.T) {
	r := phy.DefaultConfig().TxRange
	beyond := math.Nextafter(r, math.Inf(1))
	for _, tc := range []struct {
		name string
		pos  []phy.Position
		want bool
	}{
		{"exactly at range", []phy.Position{{}, {X: r}}, true},
		{"exactly at range, diagonal", []phy.Position{{}, {X: 0.6 * r, Y: 0.8 * r}}, true},
		{"one ulp beyond", []phy.Position{{}, {X: -beyond}}, false},
		{"one ulp inside", []phy.Position{{}, {Y: math.Nextafter(r, 0)}}, true},
		{"chain with a gap one ulp too wide", []phy.Position{{}, {X: -r}, {Y: beyond}}, false},
		{"chain exactly at range", []phy.Position{{}, {X: -r}, {X: -r, Y: r}}, true},
	} {
		if oracle := routing.Connected(routing.GatewayTree(tc.pos, r)); oracle != tc.want {
			t.Fatalf("%s: gateway tree says connected=%v, want %v", tc.name, oracle, tc.want)
		}
		if got := newPlacementCheck(len(tc.pos), 2*r, r).connected(tc.pos); got != tc.want {
			t.Errorf("%s: check says connected=%v, want %v", tc.name, got, tc.want)
		}
	}

	var in, out int
	for _, lim := range []float64{r, 100.3, 1000.0 / 3} {
		cfg := phy.DefaultConfig()
		cfg.TxRange = lim
		dists := map[string]float64{
			"at":         lim,
			"ulp-inside": math.Nextafter(lim, 0),
			"ulp-beyond": math.Nextafter(lim, math.Inf(1)),
			"1e-10-in":   lim * (1 - 1e-10),
			"1e-10-out":  lim * (1 + 1e-10),
		}
		dirs := map[string][2]float64{
			"+x": {1, 0}, "-x": {-1, 0}, "+y": {0, 1}, "-y": {0, -1},
			"3-4-5":  {0.6, 0.8},
			"-4-3-5": {-0.8, 0.6},
			"45°":    {math.Sqrt2 / 2, math.Sqrt2 / 2},
			"-45°":   {math.Sqrt2 / 2, -math.Sqrt2 / 2},
			"1 rad":  {math.Cos(1), math.Sin(1)},
		}
		for _, base := range []phy.Position{{}, {X: 1234.5, Y: -987.25}, {X: -0.1, Y: 0.3}} {
			for dn, d := range dists {
				for on, u := range dirs {
					pos := []phy.Position{base, {X: base.X + d*u[0], Y: base.Y + d*u[1]}}
					name := fmt.Sprintf("lim %v, %s, %s from %v", lim, dn, on, base)
					want := math.Hypot(pos[0].X-pos[1].X, pos[0].Y-pos[1].Y) <= lim
					if want {
						in++
					} else {
						out++
					}
					if got := phy.NewReach(lim).Within(pos[0], pos[1]); got != want {
						t.Errorf("%s: Reach.Within = %v, Hypot says %v", name, got, want)
					}
					radius := 2*lim + math.Hypot(base.X, base.Y)
					if got := newPlacementCheck(2, radius, lim).connected(pos); got != want {
						t.Errorf("%s: check says connected=%v, Hypot says %v", name, got, want)
					}
					if got := routing.Connected(routing.GatewayTree(pos, lim)); got != want {
						t.Errorf("%s: gateway tree says connected=%v, Hypot says %v", name, got, want)
					}
					m := New(sim.NewEngine(1), cfg, mac.DefaultConfig())
					m.AddNode(0, pos[0])
					m.AddNode(1, pos[1])
					if got := m.Ch.InTxRange(0, 1); got != want {
						t.Errorf("%s: InTxRange = %v, Hypot says %v", name, got, want)
					}
				}
			}
		}
	}
	t.Logf("edge table: %d pairs within, %d beyond", in, out)
	if in == 0 || out == 0 {
		t.Errorf("edge table one-sided: %d pairs within, %d beyond", in, out)
	}
}

// TestSincosMatchesSinCos pins samplePositions' one trig call to the two
// it replaced: math.Sincos must give math.Sin and math.Cos of the angle
// bit for bit, or every random-disk placement would move.
func TestSincosMatchesSinCos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 1 << 20 {
		theta := 2 * math.Pi * rng.Float64()
		sin, cos := math.Sincos(theta)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(theta)) || math.Float64bits(cos) != math.Float64bits(math.Cos(theta)) {
			t.Fatalf("draw %d, θ=%v: Sincos = (%v, %v), Sin, Cos = (%v, %v)", i, theta, sin, cos, math.Sin(theta), math.Cos(theta))
		}
	}
}
