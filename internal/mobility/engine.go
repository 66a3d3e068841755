// The position-update engine: a self-rescheduling tick on the
// simulation clock that queries the active model for every mobile
// node's position (ascending node id — the repository's deterministic
// iteration convention), applies the tick's moves as one batch through
// mesh.MoveNodes (one PHY neighbor-index rebuild per tick), and runs one
// mesh.Repair round whenever decode-range link membership changed — the
// same repair round scripted faults run.
//
// Tick-ordering determinism: ticks fire at fixed multiples of the tick
// interval, so their (time, sequence) order against every other event
// is reproducible; within a tick, nodes move in ascending id order (the
// batch's mover order, which fixes its change report and carrier-sense
// callbacks; see phy.Channel.MoveNodes); a node caught mid-transmission
// is left out of the batch and simply jumps to its model position at the
// next tick (the PHY lags the model by at most one tick for that node —
// a pure function of sim state, so replays agree). Moves consume no
// engine randomness.
package mobility

import (
	"fmt"
	"slices"

	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// DefaultTickSec is the position-update interval when the scenario does
// not set one: 500 ms keeps pedestrian-speed position error below a
// metre without measurable event-load cost.
const DefaultTickSec = 0.5

// Config selects and parameterizes a mobility run.
type Config struct {
	// Model is the registry name ("waypoint", "trace"); IsOff names
	// (empty, "off", "static") mean no mobility and Attach returns nil.
	Model string
	// Opts parameterizes the model.
	Opts Options
	// TickSec is the position-update interval (default DefaultTickSec).
	TickSec float64
	// Fixed pins nodes in place regardless of the model — typically the
	// gateway, which is mains-powered street furniture, not a commuter.
	Fixed []pkt.NodeID
	// Seed is the run seed the model derives per-node randomness from.
	Seed int64
	// UntilSec is the horizon after which no further ticks are
	// scheduled (normally the scenario duration).
	UntilSec float64
}

// Stats counts what the engine did, for reports and tests.
type Stats struct {
	// Ticks is the number of position-update rounds fired.
	Ticks uint64
	// Moves is the number of node moves applied (paused nodes included).
	Moves uint64
	// Deferred counts moves skipped because the node was mid-frame.
	Deferred uint64
	// Repairs counts ticks that changed decode-range link membership and
	// ran a route-repair round.
	Repairs uint64
}

// Engine drives one model against one mesh.
type Engine struct {
	m      *mesh.Mesh
	model  Model
	tick   sim.Time
	until  sim.Time
	ids    []pkt.NodeID
	mobile []bool
	moves  []phy.Move // the tick's batch, reused across ticks
	tickFn func()

	// Stats accumulates engine activity.
	Stats Stats
}

// Attach builds cfg's model over the mesh's current deployment and
// schedules the first position tick. It returns (nil, nil) when cfg
// selects no mobility, so callers can attach unconditionally.
func Attach(m *mesh.Mesh, cfg Config) (*Engine, error) {
	if IsOff(cfg.Model) {
		return nil, nil
	}
	tickSec := cfg.TickSec
	if tickSec == 0 {
		tickSec = DefaultTickSec
	}
	if tickSec <= 0 {
		return nil, fmt.Errorf("mobility: tick must be > 0, got %g s", tickSec)
	}
	if cfg.UntilSec <= 0 {
		return nil, fmt.Errorf("mobility: horizon must be > 0, got %g s", cfg.UntilSec)
	}
	model, err := New(cfg.Model, cfg.Opts)
	if err != nil {
		return nil, err
	}
	ids := m.Ch.NodeIDs()
	starts := make([]phy.Position, len(ids))
	for i, id := range ids {
		starts[i] = m.Ch.Position(id)
	}
	if err := model.Init(ids, starts, BoundsOf(starts), cfg.Seed); err != nil {
		return nil, err
	}
	e := &Engine{
		m:      m,
		model:  model,
		tick:   sim.FromSeconds(tickSec),
		until:  sim.FromSeconds(cfg.UntilSec),
		ids:    ids,
		mobile: make([]bool, len(ids)),
	}
	for i, id := range ids {
		e.mobile[i] = model.Mobile(i) && !slices.Contains(cfg.Fixed, id)
	}
	e.tickFn = e.step
	m.Eng.ScheduleAt(m.Eng.Now()+e.tick, e.tickFn)
	return e, nil
}

// step is one position-update round (see the package comment for the
// determinism rules).
func (e *Engine) step() {
	now := e.m.Eng.Now()
	moves := e.moves[:0]
	for k, id := range e.ids {
		if !e.mobile[k] {
			continue
		}
		p := e.model.At(k, now)
		if e.m.Ch.Transmitting(id) {
			e.Stats.Deferred++
			continue
		}
		moves = append(moves, phy.Move{ID: id, Pos: p})
	}
	e.moves = moves
	e.Stats.Moves += uint64(len(moves))
	e.Stats.Ticks++
	if e.m.MoveNodes(moves) {
		e.Stats.Repairs++
		e.m.Repair()
	}
	if next := now + e.tick; next <= e.until {
		e.m.Eng.ScheduleAt(next, e.tickFn)
	}
}
