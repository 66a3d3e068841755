// Package mobility makes the mesh move: pluggable node-mobility models
// behind a name registry that mirrors internal/ctl's controller registry
// and internal/routing's strategy registry, driven by a position-update
// engine (engine.go) that ticks on the simulation clock and relocates
// stations through mesh.MoveNode / phy.MoveNode's incremental
// neighbor-index patching.
//
// The paper's evaluation world is static relays; the meshes EZ-Flow
// targets move. This package supplies the two standard evaluation
// regimes — "waypoint", the classic random-waypoint model with a
// deterministic per-node RNG, and "trace", deterministic trace-driven
// replay from a JSON waypoint list — and is the extension point for
// richer ones (Gauss-Markov, group mobility, map-constrained walks).
//
// Determinism contract: a model's positions are a pure function of
// (seed, node, time). The waypoint model derives one RNG per node from
// the run seed, so no model ever reads the engine RNG and position
// queries are independent of cross-node evaluation order; runs with
// mobility disabled schedule nothing and consume no randomness, keeping
// them byte-identical to a simulator without this package.
package mobility

import (
	"fmt"
	"math"
	"strings"

	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/registry"
	"ezflow/internal/sim"
)

// Model produces node positions over time. Implementations are bound to
// one run by Init and must be deterministic: At is a pure function of
// (seed, node index, time) — never of the engine RNG or of the order in
// which different nodes are queried. The engine queries each node with
// non-decreasing times, so models may keep per-node cursors.
type Model interface {
	// Name reports the registry name the model was created under.
	Name() string
	// Init binds the model to a deployment: node ids in ascending order
	// with their t=0 positions, the roaming bounds, and the run seed.
	Init(ids []pkt.NodeID, start []phy.Position, b Bounds, seed int64) error
	// At returns node i's position at time t (i indexes the Init slices).
	At(i int, t sim.Time) phy.Position
	// Mobile reports whether node i ever moves; the engine skips
	// immobile nodes entirely, so they cost nothing per tick.
	Mobile(i int) bool
}

// Bounds is the rectangular roaming area models confine nodes to.
type Bounds struct {
	MinX, MinY, MaxX, MaxY float64
}

// BoundsOf returns the bounding box of a deployment — the default
// roaming area when the scenario does not name one.
func BoundsOf(pos []phy.Position) Bounds {
	if len(pos) == 0 {
		return Bounds{}
	}
	b := Bounds{MinX: pos[0].X, MinY: pos[0].Y, MaxX: pos[0].X, MaxY: pos[0].Y}
	for _, p := range pos[1:] {
		b.MinX, b.MaxX = math.Min(b.MinX, p.X), math.Max(b.MaxX, p.X)
		b.MinY, b.MaxY = math.Min(b.MinY, p.Y), math.Max(b.MaxY, p.Y)
	}
	return b
}

// Valid reports whether the bounds describe a (possibly degenerate)
// rectangle with finite corners.
func (b Bounds) Valid() bool {
	for _, v := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return b.MaxX >= b.MinX && b.MaxY >= b.MinY
}

// Options parameterizes model construction. Models fill their own
// defaults, so callers may pass a zero value (except "trace", which
// needs Trace).
type Options struct {
	// SpeedMps is the maximum node speed in m/s (waypoint; default 1.5,
	// pedestrian pace).
	SpeedMps float64
	// SpeedMinMps is the minimum speed in m/s (waypoint; default
	// SpeedMps/4, bounded away from the random-waypoint zero-speed
	// pathology).
	SpeedMinMps float64
	// PauseSec is the dwell time at each waypoint in seconds (waypoint;
	// default 5).
	PauseSec float64
	// Trace is the parsed waypoint list the "trace" model replays.
	Trace *Trace
}

// Info describes one registered mobility model.
type Info struct {
	// Name is the registry key ("waypoint", "trace").
	Name string
	// Summary is the one-line description CLI usage strings embed.
	Summary string
	// New creates a model instance, validating the options.
	New func(opts Options) (Model, error)
}

// Models is the mobility-model registry, keyed by Info.Name. Its name
// lists lead with "off" because static is the default.
var Models = registry.New[Info]("mobility model", "off", "static topology (default; schedules nothing)")

// Register adds a model to the registry. It panics on an empty name, a
// nil constructor, or a duplicate registration.
func Register(info Info) {
	if info.New == nil {
		panic("mobility: Register " + info.Name + " with nil New")
	}
	Models.Add(info.Name, info.Summary, info)
}

// IsOff reports whether name selects no mobility at all — the empty
// string, "off", or "static". A run with mobility off schedules no tick
// events and consumes no randomness, so it is byte-identical to a
// simulator without the subsystem; every CLI flag, sweep axis, and
// scenario field shares this predicate.
func IsOff(name string) bool {
	switch strings.ToLower(name) {
	case "", "off", "static":
		return true
	}
	return false
}

// New builds a model by registry name, validating the options.
func New(name string, opts Options) (Model, error) {
	info, err := Models.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("mobility: %w", err)
	}
	return info.New(opts)
}
