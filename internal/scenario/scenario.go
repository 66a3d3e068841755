// Package scenario loads declarative experiment descriptions from JSON:
// a topology, a set of flows, the control mode under test, and a dynamics
// timeline of timed perturbations. It is the bridge between "as many
// scenarios as you can imagine" and the Go constructors — `ezsim
// -scenario file.json` and campaign specs describe perturbed experiments
// without writing code.
//
// A minimal spec:
//
//	{
//	  "name": "chain4-linkfailure",
//	  "topology": {"kind": "chain", "hops": 4},
//	  "mode": "ezflow",
//	  "duration_sec": 600,
//	  "flows": [{"id": 1, "rate_bps": 2e6}],
//	  "dynamics": [
//	    {"at_sec": 200, "kind": "link-down", "a": 1, "b": 2},
//	    {"at_sec": 230, "kind": "link-up", "a": 1, "b": 2}
//	  ]
//	}
//
// Build wires the spec into a runnable ezflow.Scenario. Runs are
// deterministic: the same spec and seed produce byte-identical results.
//
// Spec is the one description of a run: ezsim builds its flags into one,
// and campaigns synthesize one per built-in topology point. The
// Topologies table is the only code that knows how a topology kind
// becomes a mesh plus its default flows.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
	"ezflow/internal/mobility"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/registry"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// Spec is a complete declarative scenario.
type Spec struct {
	// Name labels reports; optional.
	Name string `json:"name,omitempty"`
	// Topology selects and parameterises the network.
	Topology Topology `json:"topology"`
	// Mode is the control mechanism: 802.11 | ezflow | penalty | diffq
	// (default 802.11).
	Mode string `json:"mode,omitempty"`
	// Controller selects a congestion controller from the internal/ctl
	// registry by name (ezflow | backpressure | feedback | staticcap |
	// penalty | diffq — see ctl.Controllers), or none with 802.11 (any
	// ctl.IsNone spelling). It is mutually exclusive with Mode: a spec sets
	// one or the other, so a file can never claim two control planes at
	// once.
	Controller string `json:"controller,omitempty"`
	// Routing selects a routing strategy from the internal/routing
	// registry by name (bfs | etx | kshortest — see routing.Strategies).
	// Empty or "bfs" keeps the default minimum-hop routes exactly as the
	// topology builder installed them; any other strategy recomputes every
	// route at wiring (see ezflow.Config.Routing).
	Routing string `json:"routing,omitempty"`
	// Seed is the run's random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationSec is the simulated horizon in seconds (default 600).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// WarmupSec excludes an initial interval from summary statistics.
	WarmupSec float64 `json:"warmup_sec,omitempty"`
	// CWCap is the hardware CWmin cap (0 = none).
	CWCap int `json:"cw_cap,omitempty"`
	// RecoveryTolerance is the stability metric's threshold fraction
	// (default 0.2).
	RecoveryTolerance float64 `json:"recovery_tolerance,omitempty"`
	// Flows lists the traffic sources; empty selects the topology kind's
	// default flows at 2 Mb/s (see Topologies).
	Flows []Flow `json:"flows,omitempty"`
	// Mobility selects node movement from the internal/mobility registry;
	// absent (or an off model) keeps the topology static, byte-identical
	// to files written before the block existed.
	Mobility *Mobility `json:"mobility,omitempty"`
	// Workload expands a gateway-scale client flow population in addition
	// to Flows; see ezflow.WorkloadSpec.
	Workload *ezflow.WorkloadSpec `json:"workload,omitempty"`
	// Dynamics is the perturbation timeline, in any order (events are
	// scheduled by their at_sec).
	Dynamics []Event `json:"dynamics,omitempty"`
}

// Mobility is the declarative form of a mobility configuration.
type Mobility struct {
	// Model: waypoint | trace, or an off spelling (off | static).
	Model string `json:"model"`
	// SpeedMps and SpeedMinMps bound waypoint leg speeds (defaults
	// 1.5 m/s and a quarter of the maximum).
	SpeedMps    float64 `json:"speed_mps,omitempty"`
	SpeedMinMps float64 `json:"speed_min_mps,omitempty"`
	// PauseSec is the waypoint dwell time (default 5 s).
	PauseSec float64 `json:"pause_sec,omitempty"`
	// TickSec is the position-update interval (default 0.5 s).
	TickSec float64 `json:"tick_sec,omitempty"`
	// Fixed pins nodes in place; absent pins the gateway (node 0), an
	// empty list pins nothing.
	Fixed []int `json:"fixed,omitempty"`
	// TraceFile names the JSON waypoint trace of the trace model,
	// resolved relative to the working directory.
	TraceFile string `json:"trace_file,omitempty"`
	// Seed overrides the run seed for trajectory generation.
	Seed int64 `json:"seed,omitempty"`
}

// Topology selects one of the repository's network builders.
type Topology struct {
	// Kind names a row of the Topologies table: chain | testbed |
	// scenario1 | scenario2 | tree | grid | random.
	Kind string `json:"kind"`
	// Hops is the chain length (default 4).
	Hops int `json:"hops,omitempty"`
	// Branching and Depth shape the tree topology (defaults 3 and 2).
	Branching int `json:"branching,omitempty"`
	Depth     int `json:"depth,omitempty"`
	// Width and Height shape the grid topology (defaults 4 and 4; at
	// least 2 nodes).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Nodes is the random-disk node count (default 12, at least 2).
	Nodes int `json:"nodes,omitempty"`
	// Radius is the random-disk radius in metres (0 = auto).
	Radius float64 `json:"radius,omitempty"`
	// EdgeLoss, for the random topology only, calibrates the
	// edge-of-range loss model: links near the transmission-range limit
	// erase with probability ramping quadratically up to this value (see
	// mesh.ApplyEdgeLoss). 0 keeps every link loss-free.
	EdgeLoss float64 `json:"edge_loss,omitempty"`
}

// Flow describes one traffic source.
type Flow struct {
	ID int `json:"id"`
	// RateBps is the source rate in bit/s (default 2e6).
	RateBps float64 `json:"rate_bps,omitempty"`
	// Bytes is the packet size (default 1028).
	Bytes int `json:"bytes,omitempty"`
	// StartSec/StopSec bound the source's activity (StopSec 0 = whole
	// run); a positive StopSec must come after StartSec.
	StartSec float64 `json:"start_sec,omitempty"`
	StopSec  float64 `json:"stop_sec,omitempty"`
	// Poisson selects Poisson arrivals instead of CBR.
	Poisson bool `json:"poisson,omitempty"`
}

// Event is one timed perturbation. Kind selects which fields are read;
// see internal/dynamics for the semantics of each kind.
type Event struct {
	AtSec float64 `json:"at_sec"`
	// Kind: link-down | link-up | link-loss | node-down | node-up |
	// region-loss | region-restore | flow-start | flow-stop | flow-rate.
	Kind string `json:"kind"`
	// A and B are the link endpoints of link-* events.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// Node is the station of node-* events.
	Node int `json:"node,omitempty"`
	// Flow is the flow id of flow-* events.
	Flow int `json:"flow,omitempty"`
	// RateBps is the new rate of flow-rate events.
	RateBps float64 `json:"rate_bps,omitempty"`
	// Loss is the erasure probability of link-loss / region-loss events.
	Loss float64 `json:"loss,omitempty"`
	// X, Y and Radius define the region of region-loss events.
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Drop makes node-down discard queued packets instead of draining
	// them on restart.
	Drop bool `json:"drop,omitempty"`
	// Reroute triggers BFS route repair after the event applies. Only
	// link-down/link-up/node-down/node-up accept it.
	Reroute bool `json:"reroute,omitempty"`
}

// ParseMode maps the scenario-file and CLI spellings of the four control
// modes; plain 802.11 (the default) takes ctl.IsNone's spellings, the
// empty string included, like the controller fields. It is the single
// spelling table — ezsim and the campaign mode axis parse through it, so
// a scenario file can never parse under one CLI and be rejected by the
// other.
func ParseMode(s string) (ezflow.Mode, error) {
	if ctl.IsNone(s) {
		return ezflow.Mode80211, nil
	}
	switch strings.ToLower(s) {
	case "ezflow", "ez-flow":
		return ezflow.ModeEZFlow, nil
	case "penalty":
		return ezflow.ModePenalty, nil
	case "diffq":
		return ezflow.ModeDiffQ, nil
	}
	return 0, fmt.Errorf("scenario: unknown mode %q (want 802.11|ezflow|penalty|diffq)", s)
}

// TopologyKind is one row of the Topologies table: how a topology kind
// becomes a mesh, and which flows it carries when a spec declares none.
type TopologyKind struct {
	// flows lists the ids of the kind's default flows; nil leaves the
	// flows to the builder (the tree's per-leaf share of 2 Mb/s).
	flows func(t Topology) []int
	// check vets the kind's shape parameters; nil accepts any.
	check func(t Topology) error
	// shape renders the parameters that tell two topologies of the kind
	// apart, for campaign labels; nil for a fixed topology.
	shape func(t Topology) string
	// build wires the mesh with every shape parameter defaulted.
	build func(t Topology, cfg ezflow.Config, flows []ezflow.FlowSpec) *ezflow.Scenario
}

// Topologies is the table of built-in topology kinds. It is the only
// code that knows how a kind becomes a mesh plus its default flows:
// Validate, BuildWith, the campaign topology axis and the CLI usage
// strings all read it.
var Topologies = registry.New[TopologyKind]("topology kind", "", "")

func init() {
	ids := func(v ...int) func(Topology) []int { return func(Topology) []int { return v } }
	// fixed adapts the builder of a topology without shape parameters.
	fixed := func(build func(ezflow.Config, ...ezflow.FlowSpec) *ezflow.Scenario) func(Topology, ezflow.Config, []ezflow.FlowSpec) *ezflow.Scenario {
		return func(_ Topology, cfg ezflow.Config, fs []ezflow.FlowSpec) *ezflow.Scenario { return build(cfg, fs...) }
	}
	Topologies.Add("chain", "K-hop chain, flow 1 end to end (Fig. 1); hops, default 4", TopologyKind{
		flows: ids(1),
		shape: func(t Topology) string { return fmt.Sprintf("hops=%d", t.Hops) },
		build: func(t Topology, cfg ezflow.Config, fs []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewChain(t.Hops, cfg, fs...)
		},
	})
	Topologies.Add("testbed", "the 9-router testbed with Table 1 link losses, flows 1-2 (Fig. 3)", TopologyKind{
		flows: ids(1, 2),
		build: fixed(ezflow.NewTestbed),
	})
	Topologies.Add("scenario1", "two flows merging onto one path (Scenario 1, Fig. 5)", TopologyKind{
		flows: ids(1, 2),
		build: fixed(ezflow.NewScenario1),
	})
	Topologies.Add("scenario2", "three interfering flows (Scenario 2, Fig. 9)", TopologyKind{
		flows: ids(1, 2, 3),
		build: fixed(ezflow.NewScenario2),
	})
	Topologies.Add("tree", "downlink tree, one flow per leaf sharing 2 Mb/s; branching 3, depth 2", TopologyKind{
		flows: ids(),
		build: func(t Topology, cfg ezflow.Config, fs []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewTree(t.Branching, t.Depth, cfg, fs...)
		},
	})
	Topologies.Add("grid", "width x height lattice, flows 1-2 to the corner gateway; default 4x4", TopologyKind{
		flows: func(t Topology) []int {
			if t.Width > 1 && t.Height > 1 {
				return []int{1, 2}
			}
			return []int{1} // a 1-D grid installs only flow 1
		},
		check: func(t Topology) error {
			if t.Width*t.Height < 2 {
				return fmt.Errorf("scenario: grid needs width and height >= 1 with at least 2 nodes (got %dx%d)", t.Width, t.Height)
			}
			return nil
		},
		shape: func(t Topology) string {
			if t.Width == t.Height {
				return fmt.Sprintf("side=%d", t.Width)
			}
			return fmt.Sprintf("size=%dx%d", t.Width, t.Height)
		},
		build: func(t Topology, cfg ezflow.Config, fs []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewGrid(t.Width, t.Height, cfg, fs...)
		},
	})
	Topologies.Add("random", "seeded random disk, flow 1 from the farthest node; nodes, default 12", TopologyKind{
		flows: ids(1),
		check: func(t Topology) error {
			if t.Nodes < 2 {
				return fmt.Errorf("scenario: random topology needs nodes >= 2 (got %d)", t.Nodes)
			}
			if t.EdgeLoss < 0 || t.EdgeLoss >= 1 {
				return fmt.Errorf("scenario: edge_loss %g out of [0,1)", t.EdgeLoss)
			}
			return nil
		},
		shape: func(t Topology) string { return fmt.Sprintf("nodes=%d", t.Nodes) },
		build: func(t Topology, cfg ezflow.Config, fs []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewRandomLossy(t.Nodes, t.Radius, t.EdgeLoss, cfg, fs...)
		},
	})
}

// withDefaults fills every unset shape parameter with its documented
// default.
func (t Topology) withDefaults() Topology {
	for _, f := range []struct {
		v   *int
		def int
	}{{&t.Hops, 4}, {&t.Branching, 3}, {&t.Depth, 2}, {&t.Width, 4}, {&t.Height, 4}, {&t.Nodes, 12}} {
		if *f.v <= 0 {
			*f.v = f.def
		}
	}
	return t
}

// Shape renders the defaulted shape parameters that tell two topologies
// of the same kind apart ("hops=4", "side=3", "nodes=12"); empty for a
// fixed topology or an unknown kind. Campaign labels embed it.
func (t Topology) Shape() string {
	kind, ok := Topologies.ByName(t.Kind)
	if !ok || kind.shape == nil {
		return ""
	}
	return kind.shape(t.withDefaults())
}

// validate checks the kind against the table and the defaulted shape
// parameters against the kind's row.
func (t Topology) validate() error {
	if t.Kind == "" {
		return fmt.Errorf("scenario: topology.kind is required")
	}
	kind, err := Topologies.Lookup(t.Kind)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if t.EdgeLoss != 0 && t.Kind != "random" {
		return fmt.Errorf("scenario: edge_loss only applies to the random topology (kind %q)", t.Kind)
	}
	if kind.check != nil {
		return kind.check(t.withDefaults())
	}
	return nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a JSON scenario spec. Unknown fields are
// rejected so typos fail loudly instead of silently configuring nothing.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks everything that can be checked without building the
// mesh (node-id existence is validated at Build time by the dynamics
// engine, which knows the topology).
func (s *Spec) Validate() error {
	if err := s.Topology.validate(); err != nil {
		return err
	}
	if _, err := ParseMode(s.Mode); err != nil {
		return err
	}
	if s.Controller != "" {
		if s.Mode != "" {
			return fmt.Errorf("scenario: mode %q and controller %q are mutually exclusive (set one)", s.Mode, s.Controller)
		}
		if _, err := ctl.Controllers.Lookup(s.Controller); err != nil && !ctl.IsNone(s.Controller) {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Routing != "" {
		if _, err := routing.Strategies.Lookup(s.Routing); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.DurationSec < 0 {
		return fmt.Errorf("scenario: negative duration_sec %g", s.DurationSec)
	}
	seen := map[int]bool{}
	for i, f := range s.Flows {
		if f.ID <= 0 {
			return fmt.Errorf("scenario: flow %d: id must be positive", i)
		}
		if seen[f.ID] {
			return fmt.Errorf("scenario: duplicate flow id %d", f.ID)
		}
		seen[f.ID] = true
		if f.RateBps < 0 || f.Bytes < 0 || f.StartSec < 0 || f.StopSec < 0 {
			return fmt.Errorf("scenario: flow %d: negative rate_bps, bytes, start_sec or stop_sec", f.ID)
		}
		if f.StopSec > 0 && f.StopSec <= f.StartSec {
			return fmt.Errorf("scenario: flow %d: stop_sec %g not after start_sec %g", f.ID, f.StopSec, f.StartSec)
		}
	}
	if m := s.Mobility; m != nil && !mobility.IsOff(m.Model) {
		if _, err := mobility.Models.Lookup(m.Model); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if m.SpeedMps < 0 || m.SpeedMinMps < 0 || m.PauseSec < 0 || m.TickSec < 0 {
			return fmt.Errorf("scenario: mobility speeds, pause and tick must be >= 0")
		}
		if m.SpeedMps > 0 && m.SpeedMinMps > m.SpeedMps {
			return fmt.Errorf("scenario: mobility speed_min_mps %g above speed_mps %g", m.SpeedMinMps, m.SpeedMps)
		}
		for _, id := range m.Fixed {
			if id < 0 {
				return fmt.Errorf("scenario: mobility fixed id %d is negative", id)
			}
		}
		if (m.Model == "trace") != (m.TraceFile != "") {
			return fmt.Errorf("scenario: trace_file is required by the trace model and meaningless elsewhere")
		}
	} else if m != nil && !reflect.DeepEqual(*m, Mobility{Model: m.Model}) {
		return fmt.Errorf("scenario: mobility model %q is off but sets model parameters", m.Model)
	}
	if w := s.Workload; w != nil {
		if w.Gateway < 0 {
			return fmt.Errorf("scenario: workload gateway %d is negative", w.Gateway)
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	dur := s.DurationSec
	if dur <= 0 {
		dur = ezflow.DefaultDuration.Seconds()
	}
	for i, ev := range s.Dynamics {
		if _, ok := dynamics.ParseKind(ev.Kind); !ok {
			return fmt.Errorf("scenario: dynamics[%d]: unknown kind %q", i, ev.Kind)
		}
		if ev.AtSec < 0 {
			return fmt.Errorf("scenario: dynamics[%d]: negative at_sec", i)
		}
		if ev.AtSec > dur {
			return fmt.Errorf("scenario: dynamics[%d]: at_sec %g beyond duration %g", i, ev.AtSec, dur)
		}
	}
	return nil
}

// script converts the spec's dynamics timeline into a dynamics script.
func (s *Spec) script() *dynamics.Script {
	if len(s.Dynamics) == 0 {
		return nil
	}
	sc := &dynamics.Script{}
	for _, ev := range s.Dynamics {
		kind, _ := dynamics.ParseKind(ev.Kind) // Validate rejects unknown kinds
		sc.Add(dynamics.Event{
			At:      sim.FromSeconds(ev.AtSec),
			Kind:    kind,
			A:       pkt.NodeID(ev.A),
			B:       pkt.NodeID(ev.B),
			Node:    pkt.NodeID(ev.Node),
			Flow:    pkt.FlowID(ev.Flow),
			RateBps: ev.RateBps,
			Loss:    ev.Loss,
			Center:  phy.Position{X: ev.X, Y: ev.Y},
			Radius:  ev.Radius,
			Drop:    ev.Drop,
			Reroute: ev.Reroute,
		})
	}
	return sc
}

// mobilityConfig resolves the spec's mobility block into a runnable
// configuration, loading the trace file when the trace model is
// selected. It returns nil for a static spec.
func (s *Spec) mobilityConfig() (*mobility.Config, error) {
	m := s.Mobility
	if m == nil || mobility.IsOff(m.Model) {
		return nil, nil
	}
	cfg := &mobility.Config{
		Model: m.Model,
		Opts: mobility.Options{
			SpeedMps:    m.SpeedMps,
			SpeedMinMps: m.SpeedMinMps,
			PauseSec:    m.PauseSec,
		},
		TickSec: m.TickSec,
		Seed:    m.Seed,
	}
	if m.Fixed != nil {
		cfg.Fixed = make([]pkt.NodeID, len(m.Fixed))
		for i, id := range m.Fixed {
			cfg.Fixed[i] = pkt.NodeID(id)
		}
	}
	if m.TraceFile != "" {
		tr, err := mobility.LoadTrace(m.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("scenario: mobility trace: %w", err)
		}
		cfg.Opts.Trace = tr
	}
	return cfg, nil
}

// Config resolves the spec into the ezflow.Config it runs with: the
// shared run parameters, the dynamics timeline, the mobility block (its
// trace file loaded) and the workload block. Callers may adjust the
// result (the campaign layer sets each replication's seed) before
// passing it to BuildWith.
func (s *Spec) Config() (ezflow.Config, error) {
	cfg := ezflow.DefaultConfig()
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.DurationSec > 0 {
		cfg.Duration = sim.FromSeconds(s.DurationSec)
	}
	cfg.Mode, _ = ParseMode(s.Mode) // Validate vetted the spelling
	cfg.Controller = s.Controller
	cfg.Routing = s.Routing
	cfg.MAC.HardwareCWCap = s.CWCap
	cfg.WarmupSkip = sim.FromSeconds(s.WarmupSec)
	cfg.RecoveryTolerance = s.RecoveryTolerance
	cfg.Dynamics = s.script()
	mc, err := s.mobilityConfig()
	if err != nil {
		return ezflow.Config{}, err
	}
	cfg.Mobility = mc
	cfg.Workload = s.Workload
	return cfg, nil
}

// SetRate puts rateBps on every declared flow, first declaring the
// topology's default flows when the spec has none (the tree declares
// none and keeps its per-leaf share of 2 Mb/s). It writes a fresh Flows
// slice, so a shallow copy of a shared spec may call it.
func (s *Spec) SetRate(rateBps float64) {
	flows := append([]Flow(nil), s.Flows...)
	if kind, ok := Topologies.ByName(s.Topology.Kind); ok && len(flows) == 0 {
		for _, id := range kind.flows(s.Topology.withDefaults()) {
			flows = append(flows, Flow{ID: id})
		}
	}
	for i := range flows {
		flows[i].RateBps = rateBps
	}
	s.Flows = flows
}

// SetMobility selects a mobility model the way ezsim's -mobility flag and
// the campaign mobility axis do: an off spelling drops the block (a
// static control run), and a model swapped into an existing block
// inherits its tuned speed, pause, tick and pins; the trace file stays
// only with the trace model. The block is copied, never mutated, so a
// shallow copy of a shared spec may call it.
func (s *Spec) SetMobility(model string) {
	if mobility.IsOff(model) {
		s.Mobility = nil
		return
	}
	var m Mobility
	if s.Mobility != nil {
		m = *s.Mobility
	}
	m.Model = model
	if model != "trace" {
		m.TraceFile = ""
	}
	s.Mobility = &m
}

// SetClients resizes the workload population, keeping the block's shape,
// or synthesizes an always-on downlink population when the spec has no
// workload block. Like SetMobility it copies the block.
func (s *Spec) SetClients(n int) {
	var w ezflow.WorkloadSpec
	if s.Workload != nil {
		w = *s.Workload
	}
	w.Clients = n
	s.Workload = &w
}

// Build wires the spec into a runnable scenario. Topology construction
// panics (disconnected placements, routes through unknown nodes, dynamics
// events naming absent nodes) are converted into errors.
func (s *Spec) Build() (*ezflow.Scenario, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return s.BuildWith(cfg)
}

// BuildWith wires the spec's topology and flows around cfg, the spec's
// Config as the caller adjusted it — the campaign layer uses it to sweep
// its axes over one scenario file or a built-in topology. A spec without
// flows runs the kind's default flows at 2 Mb/s. Panics are converted
// into errors as in Build.
func (s *Spec) BuildWith(cfg ezflow.Config) (sc *ezflow.Scenario, err error) {
	defer func() {
		if r := recover(); r != nil {
			sc, err = nil, fmt.Errorf("scenario: building %q: %v", s.Topology.Kind, r)
		}
	}()
	kind, err := Topologies.Lookup(s.Topology.Kind)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	t := s.Topology.withDefaults()
	flows := make([]ezflow.FlowSpec, 0, len(s.Flows))
	for _, f := range s.Flows {
		rate := f.RateBps
		if rate == 0 {
			rate = 2e6
		}
		flows = append(flows, ezflow.FlowSpec{
			Flow:    ezflow.FlowID(f.ID),
			RateBps: rate,
			Bytes:   f.Bytes,
			Start:   sim.FromSeconds(f.StartSec),
			Stop:    sim.FromSeconds(f.StopSec),
			Poisson: f.Poisson,
		})
	}
	if len(flows) == 0 {
		for _, id := range kind.flows(t) {
			flows = append(flows, ezflow.FlowSpec{Flow: ezflow.FlowID(id), RateBps: 2e6})
		}
	}
	return kind.build(t, cfg, flows), nil
}
