package mobility

import (
	"math"
	"slices"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

func TestRegistry(t *testing.T) {
	names := Models.Names()
	for _, want := range []string{"waypoint", "trace"} {
		if !slices.Contains(names, want) {
			t.Fatalf("registry %v missing %q", names, want)
		}
	}
	if _, ok := Models.ByName("nope"); ok {
		t.Fatal("ByName should miss unknown models")
	}
	if _, err := New("nope", Options{}); err == nil {
		t.Fatal("New of an unknown model must error")
	}
	for _, off := range []string{"", "off", "static", "OFF"} {
		if !IsOff(off) {
			t.Fatalf("IsOff(%q) = false", off)
		}
	}
	if IsOff("waypoint") {
		t.Fatal("IsOff(waypoint) = true")
	}
	if Models.Usage() == "" || Models.NamesList() == "" {
		t.Fatal("Usage/NamesList must render")
	}
}

// TestWaypointDeterministicAndIndependent pins the model's determinism
// contract: trajectories are identical across instances with the same
// seed, different across seeds, independent of cross-node query
// interleaving, and confined to the bounds.
func TestWaypointDeterministicAndIndependent(t *testing.T) {
	ids := []pkt.NodeID{0, 1, 2, 3}
	start := []phy.Position{{}, {X: 100}, {Y: 100}, {X: 100, Y: 100}}
	b := Bounds{MaxX: 500, MaxY: 500}
	mk := func(seed int64) Model {
		m, err := New("waypoint", Options{SpeedMps: 10, PauseSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ids, start, b, seed); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, c, d := mk(7), mk(7), mk(8)
	// a: node-major sweep; c: time-major sweep. Positions must agree.
	type key struct {
		i int
		t sim.Time
	}
	got := map[key]phy.Position{}
	for i := range ids {
		for step := 1; step <= 40; step++ {
			tm := sim.Time(step) * 500 * sim.Millisecond
			got[key{i, tm}] = a.At(i, tm)
		}
	}
	diverged := false
	for step := 1; step <= 40; step++ {
		tm := sim.Time(step) * 500 * sim.Millisecond
		for i := range ids {
			p := c.At(i, tm)
			if p != got[key{i, tm}] {
				t.Fatalf("query-order dependence at node %d t=%v: %v vs %v", i, tm, p, got[key{i, tm}])
			}
			if p.X < b.MinX || p.X > b.MaxX || p.Y < b.MinY || p.Y > b.MaxY {
				t.Fatalf("node %d escaped bounds: %v", i, p)
			}
			if d.At(i, tm) != p {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestWaypointDegenerateBoundsTerminates guards the zero-area,
// zero-pause corner: At must not spin forever.
func TestWaypointDegenerateBoundsTerminates(t *testing.T) {
	m, err := New("waypoint", Options{SpeedMps: 1, PauseSec: 0.000001})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init([]pkt.NodeID{0}, []phy.Position{{X: 3, Y: 4}}, Bounds{MinX: 3, MaxX: 3, MinY: 4, MaxY: 4}, 1); err != nil {
		t.Fatal(err)
	}
	if p := m.At(0, sim.FromSeconds(3600)); p != (phy.Position{X: 3, Y: 4}) {
		t.Fatalf("degenerate bounds moved the node to %v", p)
	}
}

func TestWaypointOptionValidation(t *testing.T) {
	if _, err := New("waypoint", Options{SpeedMps: -1}); err == nil {
		t.Fatal("negative speed must be rejected")
	}
	if _, err := New("waypoint", Options{SpeedMps: 1, SpeedMinMps: 2}); err == nil {
		t.Fatal("min speed above max must be rejected")
	}
	if _, err := New("waypoint", Options{PauseSec: -1}); err == nil {
		t.Fatal("negative pause must be rejected")
	}
}

func TestBoundsOf(t *testing.T) {
	b := BoundsOf([]phy.Position{{X: -5, Y: 2}, {X: 10, Y: -3}})
	want := Bounds{MinX: -5, MinY: -3, MaxX: 10, MaxY: 2}
	if b != want {
		t.Fatalf("BoundsOf = %+v, want %+v", b, want)
	}
	if !b.Valid() {
		t.Fatal("finite bounds must be valid")
	}
	if (Bounds{MinX: math.NaN()}).Valid() {
		t.Fatal("NaN bounds must be invalid")
	}
	if (Bounds{MinX: 1, MaxX: 0}).Valid() {
		t.Fatal("inverted bounds must be invalid")
	}
}

// buildMesh is a 3x3 grid mesh for engine tests.
func buildMesh() (*sim.Engine, *mesh.Mesh) {
	eng := sim.NewEngine(1)
	return eng, mesh.Grid(eng, 3, 3, phy.DefaultConfig(), mac.DefaultConfig())
}

// TestEngineMovesAndPinsFixed runs the waypoint engine over a grid and
// checks: mobile nodes actually move, Fixed nodes never do, ticks stop
// at the horizon, and the rebuilt index stays equal to the oracle.
func TestEngineMovesAndPinsFixed(t *testing.T) {
	eng, m := buildMesh()
	gwPos := m.Ch.Position(0)
	e, err := Attach(m, Config{
		Model:    "waypoint",
		Opts:     Options{SpeedMps: 20, PauseSec: 0.5},
		TickSec:  0.25,
		Fixed:    []pkt.NodeID{0},
		Seed:     42,
		UntilSec: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	repairs := 0
	m.OnRepair(func() { repairs++ })
	eng.Run(sim.FromSeconds(60))
	if m.Ch.Position(0) != gwPos {
		t.Fatalf("fixed gateway moved to %v", m.Ch.Position(0))
	}
	moved := false
	for _, id := range m.Ch.NodeIDs() {
		if id != 0 && m.Ch.Position(id) != (phy.Position{X: float64(id%3) * 200, Y: float64(id/3) * 200}) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no node moved at 20 m/s over 30 s")
	}
	if e.Stats.Ticks != 120 { // 30 s horizon / 0.25 s tick
		t.Fatalf("ticks = %d, want 120", e.Stats.Ticks)
	}
	if e.Stats.Moves == 0 {
		t.Fatal("no moves recorded")
	}
	if uint64(repairs) != e.Stats.Repairs {
		t.Fatalf("repair hook fired %d times, stats say %d", repairs, e.Stats.Repairs)
	}
	if repairs == 0 {
		t.Fatal("fast movement on a 200 m grid must change decode membership at least once")
	}
	if err := m.Ch.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineOffIsNil: off-spellings attach nothing and schedule nothing.
func TestEngineOffIsNil(t *testing.T) {
	eng, m := buildMesh()
	before := eng.Scheduled()
	for _, name := range []string{"", "off", "static"} {
		e, err := Attach(m, Config{Model: name, UntilSec: 10})
		if err != nil || e != nil {
			t.Fatalf("Attach(%q) = (%v, %v), want (nil, nil)", name, e, err)
		}
	}
	if eng.Scheduled() != before {
		t.Fatal("mobility-off must not schedule any event")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	_, m := buildMesh()
	if _, err := Attach(m, Config{Model: "waypoint", UntilSec: 0}); err == nil {
		t.Fatal("zero horizon must be rejected")
	}
	if _, err := Attach(m, Config{Model: "waypoint", TickSec: -1, UntilSec: 10}); err == nil {
		t.Fatal("negative tick must be rejected")
	}
	if _, err := Attach(m, Config{Model: "bogus", UntilSec: 10}); err == nil {
		t.Fatal("unknown model must be rejected")
	}
	if _, err := Attach(m, Config{Model: "trace", UntilSec: 10}); err == nil {
		t.Fatal("trace without a trace must be rejected")
	}
}

// TestEngineByteIdenticalReplay pins run-to-run determinism of a mobile
// mesh at the engine level: two identical runs make identical moves.
func TestEngineByteIdenticalReplay(t *testing.T) {
	run := func() ([]phy.Position, Stats) {
		eng, m := buildMesh()
		e, err := Attach(m, Config{
			Model:    "waypoint",
			Opts:     Options{SpeedMps: 15},
			Seed:     9,
			UntilSec: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(sim.FromSeconds(20))
		var out []phy.Position
		for _, id := range m.Ch.NodeIDs() {
			out = append(out, m.Ch.Position(id))
		}
		return out, e.Stats
	}
	p1, s1 := run()
	p2, s2 := run()
	if !slices.Equal(p1, p2) || s1 != s2 {
		t.Fatalf("replay diverged: %v/%+v vs %v/%+v", p1, s1, p2, s2)
	}
}
