// Package campaign is the experiment-orchestration layer of the
// repository: it fans independent ezflow.Scenario runs out across a pool
// of workers and aggregates replications into the statistics the paper's
// evaluation grid needs (mean, standard deviation, 95% confidence
// intervals, Jain-index distributions).
//
// The package has two layers. The generic layer — RunAll — executes a
// slice of independent jobs on up to GOMAXPROCS goroutines and returns
// results in submission order; internal/exp routes every figure/table
// experiment through it. The declarative layer — Spec, Engine, Sink —
// describes a parameter sweep over the axes of AxisNames with per-point
// seed replications, runs the whole grid, and emits the outcome through
// pluggable sinks (human-readable report, JSON, CSV). Every run is built
// by scenario.Spec.BuildWith, from the campaign's scenario file or from a
// spec synthesized for a built-in topology point.
// The controller axis additionally sweeps the congestion-controller
// registry (internal/ctl), so head-to-head controller comparisons are one
// sweep away; the routing axis does the same for the routing-strategy
// registry (internal/routing).
//
// Determinism: every run's seed is derived purely from (base seed, point
// label, replication index) by DeriveSeed, and results are collected by
// grid position rather than completion order, so a campaign's output is
// byte-identical no matter how many workers execute it.
package campaign

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
	"ezflow/internal/fabric"
	"ezflow/internal/mobility"
	"ezflow/internal/obs"
	"ezflow/internal/routing"
	"ezflow/internal/scenario"
	"ezflow/internal/stats"
)

// Spec declares a campaign: an ordered list of swept axes, the number of
// seed replications per grid point, and the shared run parameters.
type Spec struct {
	Name string `json:"name"`
	// Axes are the swept parameters, in sweep order. The grid is their
	// cartesian product; with no axes the campaign is a single point.
	Axes []Axis `json:"axes,omitempty"`
	// Reps is the number of independently seeded replications per point
	// (default 1).
	Reps int `json:"reps"`
	// BaseSeed feeds DeriveSeed; two campaigns with different base seeds
	// draw disjoint replication streams.
	BaseSeed int64 `json:"base_seed"`
	// DurationSec is the simulated duration of each run (default 600 s,
	// the paper's standard horizon).
	DurationSec float64 `json:"duration_sec"`
	// RateBps is the per-flow CBR rate when "rate" is not swept
	// (default 2 Mb/s, the paper's saturating source).
	RateBps float64 `json:"rate_bps"`
	// Scenario, when non-nil, is a declarative scenario file that
	// replaces the built-in topology/flow grid: every run builds from it
	// (its dynamics timeline included), and every axis but the
	// topology-shaped ones (topology, hops, nodes) may be swept — those
	// conflict and are rejected. The file's duration wins over
	// DurationSec unless the file leaves it unset.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Obs attaches the observability layer (metrics + flight recorder;
	// see internal/obs) to every run. It is excluded from serialization
	// on purpose: observability never perturbs a run, so campaign output
	// — the spec echo included — must stay byte-identical with it on or
	// off (golden tests pin this).
	Obs bool `json:"-"`
}

// sweeps reports whether the named axis is swept by this spec.
func (s Spec) sweeps(name string) bool {
	for _, ax := range s.Axes {
		if ax.Name == name {
			return true
		}
	}
	return false
}

// Axis is one swept parameter, named by a row of the axis table (see
// AxisNames and SweepUsage). Semantics beyond the usage text: the
// controller axis accepts 802.11|off|none for the raw baseline and is
// mutually exclusive with the mode axis; hops doubles as the side of a
// grid, clamped to >= 2; random placements are seeded per replication;
// flap=1 severs the first flow's middle link for a tenth of the run
// starting at 40% and churn=1 halts its middle relay over the same
// window, both with BFS route repair; speed and pause override the
// mobility axis or the scenario file's mobility block, one of which must
// be present; clients overrides the scenario file's workload population
// or synthesizes an always-on downlink one when the campaign has none.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// ParseSweep parses the CLI sweep syntax "axis=v1,v2,..." into an Axis.
// Integer ranges expand: "hops=2..8" is hops 2,3,...,8.
func ParseSweep(s string) (Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || vals == "" {
		return Axis{}, fmt.Errorf("campaign: sweep %q is not axis=v1,v2,...", s)
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if axisByName(name) == nil {
		return Axis{}, fmt.Errorf("campaign: unknown sweep axis %q (want %s)", name, strings.Join(AxisNames(), "|"))
	}
	var out []string
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if lo, hi, isRange := strings.Cut(v, ".."); isRange {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return Axis{}, fmt.Errorf("campaign: bad range %q in sweep %q", v, s)
			}
			for i := a; i <= b; i++ {
				out = append(out, strconv.Itoa(i))
			}
			continue
		}
		if v != "" {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return Axis{}, fmt.Errorf("campaign: sweep %q has no values", s)
	}
	return Axis{Name: name, Values: out}, nil
}

// Point is one fully resolved grid point of a campaign.
type Point struct {
	Index    int         `json:"index"`
	Label    string      `json:"label"`
	Topology string      `json:"topology"`
	Mode     ezflow.Mode `json:"mode"`
	Hops     int         `json:"hops"`
	RateBps  float64     `json:"rate_bps"`
	CWCap    int         `json:"cw_cap"`
	Nodes    int         `json:"nodes"`
	// Controller is the registry controller deployed at this point; empty
	// derives the control plane from Mode, "802.11" pins the raw baseline.
	Controller string `json:"controller,omitempty"`
	// Routing is the registry routing strategy at this point; empty keeps
	// the topology builder's minimum-hop routes (the "bfs" default).
	Routing string `json:"routing,omitempty"`
	// Flap and Churn are the fault-injection axes.
	Flap  bool `json:"flap,omitempty"`
	Churn bool `json:"churn,omitempty"`
	// Mobility is the mobility model at this point: empty means the
	// point adds none (a scenario file's block still applies), "off"
	// pins the topology static even over such a block. All four
	// mobility/workload fields are omitempty on purpose: points that
	// predate them keep their serialized form, so historical cache keys
	// and campaign goldens are unchanged.
	Mobility string `json:"mobility,omitempty"`
	// SpeedMps and PauseSec override the waypoint parameters when > 0.
	SpeedMps float64 `json:"speed_mps,omitempty"`
	PauseSec float64 `json:"pause_sec,omitempty"`
	// Clients overrides (or synthesizes) the workload population size.
	Clients int `json:"clients,omitempty"`
	// Scenario is the scenario file's name when the campaign runs from
	// one (Spec.Scenario), replacing the topology fields above.
	Scenario string `json:"scenario,omitempty"`
}

// axisDef is one row of the sweep-axis table.
type axisDef struct {
	name string
	// doc is the axis's one-line description in the -sweep usage text.
	doc string
	// set parses one value onto a grid point.
	set func(p *Point, v string) error
	// label, when non-nil, renders the point's value as the label fragment
	// "name=value", or "" to leave it out. These rows postdate the label's
	// fixed head and append only when a point sets them, so older labels
	// (and with them DeriveSeed streams and cache keys) are untouched.
	label func(p Point) string
	// apply, when non-nil, writes the point's value onto the spec the
	// point runs. The topology-shaped rows have none (they shape a built-in
	// point's base spec), nor do flap and churn (post-build faults, see
	// applyAxisFaults).
	apply func(p Point, s *scenario.Spec) error
}

// axisTable lists every sweepable axis in usage order. ParseSweep accepts
// exactly these names, SweepUsage documents them, Point.set parses a value
// through the row, makeLabel appends the rows' fragments and runSpec and
// ezsim's flags (SpecFlags) apply them, so none of these can drift apart.
var axisTable = []axisDef{
	{name: "topology", doc: "built-in topology: " + scenario.Topologies.NamesList(), set: func(p *Point, v string) error {
		if _, err := scenario.Topologies.Lookup(v); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		p.Topology = v
		return nil
	}},
	{name: "mode", doc: "control mode: 802.11|ezflow|penalty|diffq", set: func(p *Point, v string) error {
		m, err := scenario.ParseMode(v)
		if err != nil {
			return err
		}
		p.Mode = m
		return nil
	}, apply: func(p Point, s *scenario.Spec) error {
		s.Mode, s.Controller = p.Mode.ControllerName(), ""
		return nil
	}},
	// A controller point pins its controller (802.11: none at all) over
	// the mode row's wrapper controller.
	{name: "controller", doc: "registered controller, head to head: " + ctl.Controllers.NamesList() + "|802.11", set: func(p *Point, v string) error {
		v = strings.ToLower(v)
		if ctl.IsNone(v) {
			p.Controller = "802.11"
			return nil
		}
		if _, err := ctl.Controllers.Lookup(v); err != nil {
			return fmt.Errorf("campaign: %w (or 802.11 for none)", err)
		}
		p.Controller = v
		return nil
	}, apply: func(p Point, s *scenario.Spec) error {
		if p.Controller != "" {
			s.Mode, s.Controller = "", p.Controller
		}
		return nil
	}},
	{name: "hops", doc: "chain length / grid side", set: func(p *Point, v string) error {
		return parseInt(&p.Hops, v, 1, "hop count")
	}},
	{name: "nodes", doc: "random-disk size", set: func(p *Point, v string) error {
		return parseInt(&p.Nodes, v, 2, "node count")
	}},
	// Built-in points always carry a rate; file points only when the rate
	// axis is swept.
	{name: "rate", doc: "per-flow rate in bit/s", set: func(p *Point, v string) error {
		return parsePositive(&p.RateBps, v, "rate", "bit/s")
	}, apply: func(p Point, s *scenario.Spec) error {
		if p.RateBps > 0 {
			s.SetRate(p.RateBps)
		}
		return nil
	}},
	{name: "routing", doc: "registered routing strategy: " + routing.Strategies.NamesList(), set: func(p *Point, v string) error {
		v = strings.ToLower(v)
		if _, err := routing.Strategies.Lookup(v); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		p.Routing = v
		return nil
	}, label: func(p Point) string { return p.Routing }, apply: func(p Point, s *scenario.Spec) error {
		s.Routing = p.Routing
		return nil
	}},
	// Points that set no mobility/workload field leave a file's blocks
	// exactly as written.
	{name: "mobility", doc: "mobility model: " + mobility.Models.NamesList(), set: func(p *Point, v string) error {
		v = strings.ToLower(v)
		if mobility.IsOff(v) {
			p.Mobility = "off"
			return nil
		}
		if _, err := mobility.Models.Lookup(v); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		p.Mobility = v
		return nil
	}, label: func(p Point) string { return p.Mobility }, apply: func(p Point, s *scenario.Spec) error {
		if p.Mobility != "" {
			s.SetMobility(p.Mobility)
		}
		return nil
	}},
	{name: "speed", doc: "waypoint speed in m/s", set: func(p *Point, v string) error {
		return parsePositive(&p.SpeedMps, v, "speed", "m/s")
	}, label: func(p Point) string { return positive(p.SpeedMps) }, apply: func(p Point, s *scenario.Spec) error {
		return patchMobility(p, p.SpeedMps, s, func(m *scenario.Mobility) { m.SpeedMps = p.SpeedMps })
	}},
	{name: "pause", doc: "waypoint dwell in seconds", set: func(p *Point, v string) error {
		return parsePositive(&p.PauseSec, v, "pause", "seconds")
	}, label: func(p Point) string { return positive(p.PauseSec) }, apply: func(p Point, s *scenario.Spec) error {
		return patchMobility(p, p.PauseSec, s, func(m *scenario.Mobility) { m.PauseSec = p.PauseSec })
	}},
	{name: "clients", doc: "gateway client population", set: func(p *Point, v string) error {
		return parseInt(&p.Clients, v, 1, "client count")
	}, label: func(p Point) string { return count(p.Clients) }, apply: func(p Point, s *scenario.Spec) error {
		if p.Clients > 0 {
			s.SetClients(p.Clients)
		}
		return nil
	}},
	{name: "cap", doc: "hardware CWmin cap, 0 = none", set: func(p *Point, v string) error {
		return parseInt(&p.CWCap, v, 0, "cw cap")
	}, label: func(p Point) string { return count(p.CWCap) }, apply: func(p Point, s *scenario.Spec) error {
		s.CWCap = p.CWCap
		return nil
	}},
	{name: "flap", doc: "0|1 mid-run link failure", set: func(p *Point, v string) error {
		return parseBool01(&p.Flap, v, "flap")
	}, label: func(p Point) string { return on(p.Flap) }},
	{name: "churn", doc: "0|1 mid-run relay outage", set: func(p *Point, v string) error {
		return parseBool01(&p.Churn, v, "churn")
	}, label: func(p Point) string { return on(p.Churn) }},
}

// axisByName returns the named row of the axis table, nil when none.
func axisByName(name string) *axisDef {
	for i := range axisTable {
		if axisTable[i].name == name {
			return &axisTable[i]
		}
	}
	return nil
}

// AxisNames lists every sweepable axis name in usage order.
func AxisNames() []string {
	out := make([]string, len(axisTable))
	for i, ax := range axisTable {
		out[i] = ax.name
	}
	return out
}

// SweepUsage renders the axis table as "name (doc) | ..." for the -sweep
// flag's help text.
func SweepUsage() string {
	parts := make([]string, len(axisTable))
	for i, ax := range axisTable {
		parts[i] = ax.name + " (" + ax.doc + ")"
	}
	return strings.Join(parts, " | ")
}

func (p *Point) set(axis, value string) error {
	ax := axisByName(axis)
	if ax == nil {
		return fmt.Errorf("campaign: unknown axis %q", axis)
	}
	return ax.set(p, value)
}

// parseInt parses an integer axis value of at least lo into *dst.
func parseInt(dst *int, v string, lo int, what string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n < lo {
		return fmt.Errorf("campaign: bad %s %q", what, v)
	}
	*dst = n
	return nil
}

// parsePositive parses a positive float axis value into *dst.
func parsePositive(dst *float64, v, what, unit string) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f <= 0 {
		return fmt.Errorf("campaign: bad %s %q (want %s > 0)", what, v, unit)
	}
	*dst = f
	return nil
}

// parseBool01 parses a 0|1 (or false|true) axis value into *dst.
func parseBool01(dst *bool, v, what string) error {
	switch strings.ToLower(v) {
	case "0", "false", "off":
		*dst = false
	case "1", "true", "on":
		*dst = true
	default:
		return fmt.Errorf("campaign: bad %s value %q (want 0|1)", what, v)
	}
	return nil
}

// positive renders a label value in %g, "" when it is not positive.
func positive(f float64) string {
	if f <= 0 {
		return ""
	}
	return fmt.Sprintf("%g", f)
}

// count renders a label value in %d, "" when it is not positive.
func count(n int) string {
	if n <= 0 {
		return ""
	}
	return strconv.Itoa(n)
}

// on renders a 0|1 axis's label value: "1", or "" when off.
func on(b bool) string {
	if b {
		return "1"
	}
	return ""
}

// errNoMobility rejects speed or pause where no mobility model runs.
var errNoMobility = errors.New("campaign: speed and pause need a mobility model (the mobility axis or flag, or a scenario file with a mobility block)")

// patchMobility applies a set speed or pause (v > 0) through edit to a
// copy of whichever mobility block is active: the point's model or the
// scenario file's. A point that pins mobility off has none to patch.
func patchMobility(p Point, v float64, s *scenario.Spec, edit func(m *scenario.Mobility)) error {
	switch {
	case v <= 0 || (s.Mobility == nil && p.Mobility == "off"):
		return nil
	case s.Mobility == nil:
		return errNoMobility
	}
	m := *s.Mobility
	edit(&m)
	s.Mobility = &m
	return nil
}

// topology synthesizes a built-in point's scenario topology. The hops
// axis doubles as the side of a grid, clamped to 2 (a 1×1 "grid" has no
// route to install). Label and scenario builder share this so the report
// can never disagree with the run.
func (p Point) topology() scenario.Topology {
	side := max(p.Hops, 2)
	return scenario.Topology{Kind: p.Topology, Hops: p.Hops, Width: side, Height: side, Nodes: p.Nodes}
}

// makeLabel renders the point's label: its fixed head (topology or
// scenario, control plane, a built-in point's shape, the rate), then the
// fragment of every row that has one, in table order.
func (p Point) makeLabel() string {
	b := "topology=" + p.Topology
	if p.Scenario != "" {
		b = "scenario=" + p.Scenario
	}
	if p.Controller != "" {
		b += " ctl=" + p.Controller
	} else {
		b += " mode=" + p.Mode.String()
	}
	if shape := p.topology().Shape(); shape != "" { // file points have no kind
		b += " " + shape
	}
	if p.Scenario == "" || p.RateBps > 0 {
		b += fmt.Sprintf(" rate=%g", p.RateBps)
	}
	for _, ax := range axisTable {
		if ax.label == nil {
			continue
		}
		if v := ax.label(p); v != "" {
			b += " " + ax.name + "=" + v
		}
	}
	return b
}

// Enumerate expands the spec's axes into the cartesian grid of points,
// in deterministic axis-major order. With a scenario file attached, the
// base point mirrors the file (its name, mode and per-flow rates) and
// topology-shaped axes are rejected.
func (s Spec) Enumerate() ([]Point, error) {
	base := Point{Topology: "chain", Mode: ezflow.Mode80211, Hops: 4, RateBps: s.RateBps, Nodes: 12}
	if base.RateBps <= 0 {
		base.RateBps = 2e6
	}
	if s.sweeps("mode") && s.sweeps("controller") {
		return nil, fmt.Errorf("campaign: the mode and controller axes are mutually exclusive (controller subsumes mode)")
	}
	if s.sweeps("speed") || s.sweeps("pause") {
		fileMobile := s.Scenario != nil && s.Scenario.Mobility != nil && !mobility.IsOff(s.Scenario.Mobility.Model)
		if !s.sweeps("mobility") && !fileMobile {
			return nil, errNoMobility
		}
	}
	if s.Scenario != nil {
		if err := s.Scenario.Validate(); err != nil {
			return nil, err
		}
		// Trial-build once (no run) at the duration the runs get: dynamics
		// events naming nodes absent from the topology, and flows or events
		// that duration cuts off, only surface at build time, and surfacing
		// them here as an error beats a raw panic inside a pool worker.
		_, durSec := s.effective()
		cfg, err := runConfig(s.Scenario, durSec)
		if err != nil {
			return nil, err
		}
		if _, err := s.Scenario.BuildWith(cfg); err != nil {
			return nil, err
		}
		for _, ax := range s.Axes {
			switch ax.Name {
			case "topology", "hops", "nodes":
				return nil, fmt.Errorf("campaign: axis %q conflicts with the scenario file (its topology is fixed)", ax.Name)
			case "rate":
				// The rate axis rewrites the file's declared flows; with
				// none declared, the topology's built-in defaults would
				// run instead and every rate point would be a silent lie.
				if len(s.Scenario.Flows) == 0 {
					return nil, fmt.Errorf("campaign: the rate axis needs the scenario file to declare flows explicitly")
				}
			}
		}
		name := s.Scenario.Name
		if name == "" {
			name = s.Scenario.Topology.Kind
		}
		mode, err := scenario.ParseMode(s.Scenario.Mode)
		if err != nil {
			return nil, err
		}
		if s.Scenario.Controller != "" && s.sweeps("mode") {
			return nil, fmt.Errorf("campaign: the mode axis conflicts with the scenario file's controller %q (sweep controller instead)", s.Scenario.Controller)
		}
		// RateBps 0 marks "rates come from the file" until the rate axis
		// overrides it.
		base = Point{Scenario: name, Mode: mode, Controller: s.Scenario.Controller, Routing: s.Scenario.Routing, CWCap: s.Scenario.CWCap}
	}
	points := []Point{base}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				q := p
				if err := q.set(ax.Name, v); err != nil {
					return nil, err
				}
				next = append(next, q)
			}
		}
		points = next
	}
	for i := range points {
		points[i].Index = i
		points[i].Label = points[i].makeLabel()
	}
	return points, nil
}

// DeriveSeed maps (campaign base seed, point label, replication index)
// to one run's seed. It is a pure function of its arguments — an FNV-1a
// hash of the label mixed with the base and replication through a
// splitmix64 finaliser — so a campaign's runs are seeded identically
// regardless of worker count or completion order, and different
// replications of the same point get well-separated streams.
func DeriveSeed(base int64, label string, rep int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := h.Sum64() + uint64(base)*0x9E3779B97F4A7C15 + uint64(rep)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x)
	if s == 0 {
		s = 1
	}
	return s
}

// RunResult is the scalar outcome of one replication.
type RunResult struct {
	Point int    `json:"point"`
	Label string `json:"label"`
	Rep   int    `json:"rep"`
	Seed  int64  `json:"seed"`
	// AggKbps is the cumulative mean goodput across flows.
	AggKbps float64 `json:"agg_kbps"`
	// Fairness is Jain's index over per-flow mean throughputs.
	Fairness float64 `json:"fairness"`
	// MeanDelaySec averages the per-flow mean end-to-end delays.
	MeanDelaySec float64 `json:"mean_delay_sec"`
	// MaxQueuePkts is the largest sampled MAC backlog at any node.
	MaxQueuePkts float64 `json:"max_queue_pkts"`
	// RecoverySec is the slowest flow's fault-recovery time in seconds:
	// -1 when the run had no fault, -2 when some flow never recovered
	// (see ezflow.StabilityResult).
	RecoverySec float64 `json:"recovery_sec"`
	// TailQueuePkts is the largest relay backlog over the run's final
	// third after a fault (0 when the run had no fault) — the divergence
	// indicator of the stability experiments.
	TailQueuePkts float64 `json:"tail_queue_pkts"`
	// Failed marks a replication that produced no result: it panicked,
	// exceeded the per-run wall-clock timeout, or its assignment kept
	// killing workers until the supervisor gave up on it. Failed runs are
	// excluded from aggregation (Aggregate.FailedRuns counts them) and
	// never cached. Both fields are empty on healthy runs, so campaign
	// output without failures is byte-identical to pre-failure-model
	// output.
	Failed bool `json:"failed,omitempty"`
	// Error describes why the run failed; empty when Failed is false.
	Error string `json:"error,omitempty"`
	// FlowKbps is each flow's mean goodput.
	FlowKbps map[ezflow.FlowID]float64 `json:"flow_kbps"`

	// binKbps accumulates the run's per-bin throughput samples across
	// flows; the engine Merges these across replications into the pooled
	// bin statistics of Aggregate.BinKbps.
	binKbps stats.Welford
}

// Aggregate summarises one grid point across its replications.
type Aggregate struct {
	Point
	Reps         int           `json:"n_reps"`
	AggKbps      stats.Summary `json:"agg_kbps"`
	Fairness     stats.Summary `json:"fairness"`
	MeanDelaySec stats.Summary `json:"mean_delay_sec"`
	MaxQueuePkts stats.Summary `json:"max_queue_pkts"`
	// BinKbps pools every replication's per-bin throughput samples (a
	// Welford merge), capturing within-run variability on top of the
	// across-replication statistics above.
	BinKbps stats.Summary `json:"bin_kbps"`
	// RecoverySec summarises fault-recovery times across the
	// replications that recovered (N < Reps means some never did; N = 0
	// on fault-free points).
	RecoverySec stats.Summary `json:"recovery_sec"`
	// TailQueuePkts summarises the post-fault tail relay backlog across
	// replications of faulted runs.
	TailQueuePkts stats.Summary `json:"tail_queue_pkts"`
	// FailedRuns counts replications of this point that ended marked
	// failed (and are therefore absent from every summary above). A
	// non-zero count is the graceful-degradation marker: the campaign
	// completed, but this cell is partial.
	FailedRuns int `json:"failed_runs,omitempty"`
}

// Result is a completed campaign: per-point aggregates plus every
// individual replication, both in deterministic grid order. Elapsed is
// wall-clock time and deliberately excluded from serialisation so that
// JSON output is reproducible.
type Result struct {
	Spec    Spec          `json:"spec"`
	Points  []Aggregate   `json:"points"`
	Runs    []RunResult   `json:"runs"`
	Elapsed time.Duration `json:"-"`
}

// Engine executes campaigns on a worker pool.
type Engine struct {
	// Parallel is the maximum number of runs in flight; 0 selects
	// GOMAXPROCS. Results do not depend on it.
	Parallel int
	// Progress, when non-nil, is called after every completed run with
	// the number finished so far. Calls are serialised but arrive in
	// completion order, not grid order.
	Progress func(done, total int)
	// Cache, when non-nil, is consulted before every replication and
	// filled (atomically, via the store's write-temp-rename) as each
	// completes, so repeated sweeps only pay for new points and an
	// interrupted campaign resumes from its completed runs. Cache hits
	// return results byte-identical to the runs they replace — the
	// warm-cache golden tests pin this.
	Cache *fabric.Store
	// Interrupt, when non-nil, requests a graceful stop when closed: no
	// new replications start, in-flight ones finish (and reach the
	// cache), and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
	// RunTimeout, when positive, caps each replication's wall-clock time:
	// a run still simulating past the deadline is recorded as a
	// structured per-run failure and stopped, so it neither hangs the
	// campaign nor keeps its CPU. The stop reaches the event loop within
	// a few thousand events; topology build is not interruptible. 0
	// disables the timeout, which is the default because a timeout makes
	// output timing-dependent and therefore non-reproducible on
	// pathological runs.
	RunTimeout time.Duration
	// Faults, when non-nil, additionally receives this engine's fault
	// events — the aggregation hook for callers that count engines and
	// shard coordinators together (ezcampaign's `faults:` line). The
	// engine always tracks its own per-campaign counters too; read them
	// with FaultStats.
	Faults *FaultCounters

	hits, misses atomic.Uint64
	faults       FaultCounters
}

// CacheStats reports the engine's cumulative cache traffic across its
// Run calls (both zero when no Cache is attached). Safe to call
// concurrently with Run.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
}

// FaultStats reports the engine's cumulative fault-handling events
// (timeouts, recovered panics, failed runs). Safe to call concurrently
// with Run.
func (e *Engine) FaultStats() FaultStats {
	return e.faults.Snapshot()
}

// ErrInterrupted is returned by Engine.Run when its Interrupt channel
// closed before the grid completed. Every replication finished by then
// has reached the cache, so rerunning the same spec resumes where the
// interrupted campaign stopped.
var ErrInterrupted = errors.New("campaign: interrupted before completion")

// effective resolves the spec's defaulted execution parameters: the
// replication count and the per-run simulated duration in seconds.
func (s Spec) effective() (reps int, durSec float64) {
	reps = s.Reps
	if reps <= 0 {
		reps = 1
	}
	durSec = s.DurationSec
	if durSec <= 0 {
		durSec = ezflow.DefaultDuration.Seconds()
	}
	return reps, durSec
}

// Run executes the campaign and returns the aggregated result.
func (e *Engine) Run(spec Spec) (*Result, error) {
	points, err := spec.Enumerate()
	if err != nil {
		return nil, err
	}
	reps, durSec := spec.effective()
	parallel := e.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	jobs := make([]func() RunResult, 0, len(points)*reps)
	for _, p := range points {
		for rep := 0; rep < reps; rep++ {
			p, rep := p, rep
			jobs = append(jobs, func() RunResult { return e.exec(spec, p, rep, durSec) })
		}
	}
	start := time.Now()
	runs, interrupted := runAllCancel(parallel, jobs, e.Progress, e.Interrupt)
	if interrupted {
		return nil, ErrInterrupted
	}
	res := assemble(spec, points, reps, runs)
	res.Elapsed = time.Since(start)
	return res, nil
}

// exec satisfies one replication: from the cache when possible,
// otherwise by simulating and (best-effort) caching the outcome. Cache
// write failures never fail a run — the result is simply recomputed
// next time. Failed runs (timeout, panic) are never cached: a timeout
// is environment-dependent and a panic may be fixed by the next code
// version, so both must re-execute on retry.
func (e *Engine) exec(spec Spec, p Point, rep int, durSec float64) RunResult {
	if e.Cache == nil {
		return e.runIsolated(spec, p, rep, durSec)
	}
	key, err := runKey(spec, p, rep, durSec)
	if err != nil {
		return e.runIsolated(spec, p, rep, durSec)
	}
	var w wireRun
	if e.Cache.Get(key, &w) {
		e.hits.Add(1)
		return w.run(p, rep)
	}
	e.misses.Add(1)
	rr := e.runIsolated(spec, p, rep, durSec)
	if !rr.Failed {
		e.Cache.Put(key, wireFromRun(rr)) //nolint:errcheck // cache writes are best-effort
	}
	return rr
}

// assemble aggregates the grid's replications (in grid order: the run
// for (point i, rep r) sits at runs[i*reps+r]) into the campaign
// result. It is shared by the in-process engine and the sharded
// coordinator, which is what makes shard-merged output byte-identical
// to a single-process run. Failed replications are counted per point
// and excluded from every accumulator — a degraded cell reports the
// statistics of its surviving runs.
func assemble(spec Spec, points []Point, reps int, runs []RunResult) *Result {
	res := &Result{Spec: spec, Runs: runs}
	for i, p := range points {
		agg := Aggregate{Point: p, Reps: reps}
		var aggW, fairW, delayW, queueW, binW, recW, tailW stats.Welford
		for rep := 0; rep < reps; rep++ {
			r := runs[i*reps+rep]
			if r.Failed {
				agg.FailedRuns++
				continue
			}
			aggW.Add(r.AggKbps)
			fairW.Add(r.Fairness)
			delayW.Add(r.MeanDelaySec)
			queueW.Add(r.MaxQueuePkts)
			binW.Merge(r.binKbps)
			if r.RecoverySec >= 0 {
				recW.Add(r.RecoverySec)
			}
			if r.RecoverySec != -1 { // the run had a fault
				tailW.Add(r.TailQueuePkts)
			}
		}
		agg.AggKbps = aggW.Summarize()
		agg.Fairness = fairW.Summarize()
		agg.MeanDelaySec = delayW.Summarize()
		agg.MaxQueuePkts = queueW.Summarize()
		agg.BinKbps = binW.Summarize()
		agg.RecoverySec = recW.Summarize()
		agg.TailQueuePkts = tailW.Summarize()
		res.Points = append(res.Points, agg)
	}
	return res
}

// runOne builds and simulates one replication. A raised stop ends the
// event loop early (see sim.Engine.StopOn); the build itself runs to
// completion.
func runOne(spec Spec, p Point, rep int, durSec float64, stop *atomic.Bool) RunResult {
	seed := DeriveSeed(spec.BaseSeed, p.Label, rep)
	s := runSpec(spec, p)
	cfg, err := runConfig(s, durSec)
	if err != nil {
		panic(err)
	}
	// Random placements are seeded by the replication's run seed, so each
	// replication samples a fresh connected deployment while staying fully
	// reproducible.
	cfg.Seed = seed
	sc, err := s.BuildWith(cfg)
	if err != nil {
		panic(err)
	}
	applyAxisFaults(sc, p)
	if spec.Obs {
		sc.EnableObs(obs.Config{Metrics: true, FlightRecorder: 4096})
	}
	sc.Eng.StopOn(stop)
	res := sc.Run()
	rr := RunResult{
		Point: p.Index, Label: p.Label, Rep: rep, Seed: seed,
		AggKbps:     res.AggKbps,
		Fairness:    res.Fairness,
		RecoverySec: res.Stability.SlowestRecoverySec(),
		FlowKbps:    make(map[ezflow.FlowID]float64, len(res.Flows)),
	}
	if st := res.Stability; st != nil {
		rr.TailQueuePkts = st.TailMaxQueuePkts
	}
	// Iterate flows in sorted order: float accumulation order must not
	// depend on map iteration, or multi-flow results lose bit-for-bit
	// reproducibility.
	flowIDs := make([]ezflow.FlowID, 0, len(res.Flows))
	for f := range res.Flows {
		flowIDs = append(flowIDs, f)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	var delaySum float64
	for _, f := range flowIDs {
		fr := res.Flows[f]
		rr.FlowKbps[f] = fr.MeanThroughputKbps
		delaySum += fr.MeanDelaySec
		for _, pt := range fr.Throughput.Points {
			rr.binKbps.Add(pt.V)
		}
	}
	if len(res.Flows) > 0 {
		rr.MeanDelaySec = delaySum / float64(len(res.Flows))
	}
	for _, tr := range res.QueueTraces {
		if m := tr.Max(); m > rr.MaxQueuePkts {
			rr.MaxQueuePkts = m
		}
	}
	return rr
}

// runConfig resolves a run's spec into its Config at the campaign's
// duration. The scenario file is the experiment definition: its duration
// wins over the campaign-level default when it sets one.
func runConfig(s *scenario.Spec, durSec float64) (ezflow.Config, error) {
	cfg, err := s.Config()
	if s.DurationSec <= 0 {
		cfg.Duration = ezflow.Time(durSec * float64(ezflow.Second))
	}
	return cfg, err
}

// runSpec returns the scenario spec one grid point runs: a copy of the
// campaign's scenario file, or one synthesized for a built-in point, with
// every row's apply run over it in table order. Enumerate seeded file
// points' control plane, routing and cap from the file, and it rejects
// the one apply error (speed or pause with no mobility model).
func runSpec(spec Spec, p Point) *scenario.Spec {
	s := scenario.Spec{Topology: p.topology()}
	if spec.Scenario != nil {
		s = *spec.Scenario
	}
	for _, ax := range axisTable {
		if ax.apply == nil {
			continue
		}
		if err := ax.apply(p, &s); err != nil {
			panic(err)
		}
	}
	return &s
}

// SpecFlags declares on fs one string flag per axis row with an apply —
// the axes a scenario-file campaign may sweep — with the row's doc as its
// usage and defaults[name] as its value when not passed. The returned func
// applies, in table order, each of these flags that set names onto s
// through the row's parse and apply, just as a campaign point sweeping
// that value would.
func SpecFlags(fs *flag.FlagSet, defaults map[string]string) func(s *scenario.Spec, set map[string]bool) error {
	vals := make(map[string]*string)
	for _, ax := range axisTable {
		if ax.apply != nil {
			vals[ax.name] = fs.String(ax.name, defaults[ax.name], ax.doc)
		}
	}
	return func(s *scenario.Spec, set map[string]bool) error {
		var p Point
		for _, ax := range axisTable {
			if v, ok := vals[ax.name]; ok && set[ax.name] {
				if err := ax.set(&p, *v); err != nil {
					return err
				}
				if err := ax.apply(p, s); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// applyAxisFaults layers the flap/churn axes' perturbations onto a built
// scenario: dynamics.RouteFaults on the first flow from 40% to 50% of the
// run. Points whose first flow has no relay (1-hop routes) skip churn
// rather than fail.
func applyAxisFaults(sc *ezflow.Scenario, p Point) {
	flows := sc.Mesh.Flows()
	if len(flows) == 0 {
		return
	}
	dur := sc.Cfg.Duration
	evs := dynamics.RouteFaults(sc.Mesh, flows[0], dur/5*2, dur/2, p.Flap, p.Churn)
	if len(evs) == 0 {
		return
	}
	if err := sc.AddDynamics(&dynamics.Script{Events: evs}); err != nil {
		panic(err)
	}
}
