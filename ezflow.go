// Package ezflow is the public API of the EZ-Flow reproduction: a
// discrete-event IEEE 802.11 wireless-mesh simulator with the EZ-Flow
// hop-by-hop flow-control mechanism of Aziz, Starobinski, Thiran and
// El Fawal (CoNEXT 2009), the baselines it is compared against, and the
// workloads of the paper's evaluation.
//
// A Scenario bundles a topology, a set of flows with activity schedules, a
// control mode (plain 802.11, EZ-Flow, static penalty, or DiffQ-style
// message passing), and the instrumentation the paper reports: per-flow
// throughput and delay series, relay queue traces, contention-window
// traces, and Jain's fairness index. Topology constructors cover the
// paper's networks (chains, the 9-router testbed, the merge and crossing
// scenarios, §7 trees) plus generated ones — NewGrid lattices and
// NewRandom seeded random-disk deployments with validated connectivity.
//
// Quickstart:
//
//	cfg := ezflow.DefaultConfig()
//	cfg.Mode = ezflow.ModeEZFlow
//	sc := ezflow.NewChain(4, cfg,
//		ezflow.FlowSpec{Flow: 1, RateBps: 2e6, Stop: cfg.Duration})
//	res := sc.Run()
//	fmt.Println(res.Flows[1].MeanThroughputKbps)
//
// Scenarios are single-threaded and deterministic, but independent: each
// owns its engine and its packet/frame pool, so many can run concurrently.
// internal/campaign builds on that to fan parameter sweeps with multi-seed
// replications out across worker pools and aggregate them with confidence
// intervals (see cmd/ezcampaign, and cmd/ezbench's -parallel flag). The
// forwarding hot path is allocation-free in steady state (pooled events,
// packets and frames); BenchmarkChainRun guards the budget.
package ezflow

import (
	"fmt"
	"sort"

	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/mobility"
	"ezflow/internal/obs"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
	"ezflow/internal/stats"
	"ezflow/internal/traffic"
)

// Re-exported identifier types so callers rarely need the internal
// packages.
type (
	// NodeID identifies a mesh node.
	NodeID = pkt.NodeID
	// FlowID identifies an end-to-end flow.
	FlowID = pkt.FlowID
	// Time is virtual simulation time in nanoseconds.
	Time = sim.Time
)

// Second is one simulated second.
const Second = sim.Second

// DefaultDuration is the paper's standard 600-second horizon — the run
// length every layer (Config, scenario files, campaigns) falls back to
// when none is configured.
const DefaultDuration = 600 * Second

// Mode selects the flow-control mechanism under test.
type Mode int

const (
	// Mode80211 is plain IEEE 802.11 with no controller (the baseline).
	Mode80211 Mode = iota
	// ModeEZFlow deploys the paper's BOE+CAA controller at every relay.
	ModeEZFlow
	// ModePenalty applies the static penalty scheme of [9] with factor
	// Config.Ctl.PenaltyQ.
	ModePenalty
	// ModeDiffQ deploys the DiffQ-style differential-backlog controller,
	// which piggybacks queue sizes on data frames (message passing).
	ModeDiffQ
)

// String returns the paper's display name for the mode.
func (m Mode) String() string {
	switch m {
	case Mode80211:
		return "802.11"
	case ModeEZFlow:
		return "EZ-flow"
	case ModePenalty:
		return "penalty-q"
	case ModeDiffQ:
		return "DiffQ"
	default:
		return "unknown"
	}
}

// ControllerName maps the legacy mode to its controller-registry name
// (empty for plain 802.11, which deploys no controller). The Mode values
// are kept as thin wrappers over the registry: setting cfg.Mode without
// cfg.Controller deploys exactly the controller this reports.
func (m Mode) ControllerName() string {
	switch m {
	case ModeEZFlow:
		return "ezflow"
	case ModePenalty:
		return "penalty"
	case ModeDiffQ:
		return "diffq"
	default:
		return ""
	}
}

// Controllers returns the names of every registered congestion
// controller, sorted — the values Config.Controller, scenario files, the
// campaign "controller" axis and the ezsim -controller flag accept. CLI
// usage strings enumerate this instead of hand-maintained lists.
func Controllers() []string { return ctl.Controllers.Names() }

// Config parameterises a scenario run.
type Config struct {
	Seed     int64
	Duration Time
	Mode     Mode

	// Controller selects a congestion controller from the internal/ctl
	// registry by name (see Controllers()), overriding Mode's controller
	// when non-empty; a ctl.IsNone spelling ("802.11", "off", ...) deploys
	// none. Empty derives the controller from Mode, so existing Mode-based
	// configurations behave exactly as before. Unknown names panic at
	// scenario wiring — the CLI and scenario layers validate before
	// building.
	Controller string
	// Ctl is the one place a run tunes its controller: EZ-Flow's CAA
	// thresholds and sniff loss, and the penalty factor. Zero values
	// select each family's defaults (ctl.FillDefaults).
	Ctl ctl.Options

	// Routing selects a routing strategy from the internal/routing
	// registry by name (see routing.Strategies). Empty or "bfs" keeps the
	// default minimum-hop behaviour, byte-identical to configurations that
	// predate the registry: builder-installed routes stay exactly as
	// constructed and only route repair (mesh.Repair) runs the strategy.
	// Any other name ("etx", "kshortest") additionally recomputes every
	// installed route at wiring, so link-quality and multipath strategies
	// take effect before traffic starts. Unknown names panic at scenario
	// wiring — the CLI and scenario layers validate before building.
	Routing string

	// PHY/MAC parameters; zero values select the paper's defaults
	// (802.11b at 1 Mb/s, 250/550 m ranges, CWmin 32, 50-packet queues).
	PHY phy.Config
	MAC mac.Config

	// Dynamics, when non-nil, is a timed perturbation script (link flaps,
	// node churn, channel degradation, traffic steps) injected into the
	// run by the network-dynamics subsystem; see internal/dynamics. When
	// at least one fault event fires, the Result carries stability
	// metrics (recovery time, queue excursion, fairness trajectory).
	Dynamics *dynamics.Script
	// RecoveryTolerance is the fraction x within which a flow's post-fault
	// throughput must return to its pre-fault mean to count as recovered
	// (default 0.2, i.e. back to 80%).
	RecoveryTolerance float64

	// Mobility, when non-nil and naming a model, attaches the
	// position-update engine of internal/mobility: stations move on the
	// simulation clock, each tick's moves rebuild the PHY neighbor index
	// once (phy.Channel.MoveNodes), and route maintenance is delegated
	// to the active routing strategy whenever decode-range link
	// membership changes — through dynamics repair when a script is
	// attached, the same reroute-all path otherwise. Zero-value fields
	// inherit the run: Seed from Config.Seed, UntilSec from Duration,
	// and a nil Fixed list pins the gateway (node 0). A nil Mobility (or
	// an off model name) attaches nothing and schedules nothing, so
	// static runs are byte-identical to configurations without the field.
	Mobility *mobility.Config
	// Workload, when non-nil, expands a gateway-scale client flow
	// population (see WorkloadSpec) at wiring, in addition to the
	// explicitly passed flows.
	Workload *WorkloadSpec

	// Bin is the width of throughput bins (default 10 s).
	Bin Time
	// WarmupSkip excludes an initial interval from summary statistics.
	WarmupSkip Time
}

// DefaultConfig returns the paper's simulation settings.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Duration: DefaultDuration,
		Mode:     Mode80211,
		PHY:      phy.DefaultConfig(),
		MAC:      mac.DefaultConfig(),
		Ctl:      ctl.DefaultOptions(),
		Bin:      10 * Second,
	}
}

// queueSample is the period of the per-node queue-occupancy traces.
const queueSample = 1 * Second

// FlowSpec describes one flow's traffic: CBR at RateBps from Start to Stop
// (Stop = 0 means the whole run; a positive Stop must come after Start).
// Bytes is the packet size (0 selects 1028). Poisson selects Poisson
// arrivals instead of CBR. Wiring panics on a negative Start, Stop or
// Bytes.
type FlowSpec struct {
	Flow    FlowID
	RateBps float64
	Bytes   int
	Start   Time
	Stop    Time
	Poisson bool
}

// Scenario is a fully wired experiment ready to run.
type Scenario struct {
	Cfg     Config
	Eng     *sim.Engine
	Mesh    *mesh.Mesh
	Sources map[FlowID]*traffic.Source
	Meters  map[FlowID]*stats.FlowMeter
	// QueueTraces samples each node's total MAC backlog every second.
	QueueTraces map[NodeID]*stats.Series
	// Ctl is the deployed congestion controller, non-nil whenever the
	// scenario runs one (any mode or controller name except plain 802.11).
	Ctl ctl.Instance
	// Dyn is the perturbation engine, non-nil once a dynamics script is
	// attached (Config.Dynamics or AddDynamics).
	Dyn *dynamics.Engine
	// Mob is the mobility engine, non-nil when Config.Mobility selects a
	// model; its Stats land in the Result.
	Mob *mobility.Engine
	// Obs is the attached observability state, non-nil once enabled
	// (EnableObs); see internal/obs.
	Obs *obs.Set

	specs []FlowSpec
	ran   bool
}

// NewScenario wires a scenario around a caller-built mesh. The builder
// receives the engine and must return the mesh with routes installed.
func NewScenario(cfg Config, build func(*sim.Engine) *mesh.Mesh, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := build(eng)
	return wire(cfg, eng, m, flows)
}

func fillDefaults(cfg *Config) {
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultDuration
	}
	if cfg.PHY.BitRate == 0 {
		cfg.PHY = phy.DefaultConfig()
	}
	if cfg.MAC.CWmin == 0 {
		def := mac.DefaultConfig()
		def.HardwareCWCap = cfg.MAC.HardwareCWCap
		def.UseRTSCTS = cfg.MAC.UseRTSCTS
		cfg.MAC = def
	}
	ctl.FillDefaults(&cfg.Ctl)
	if cfg.Bin <= 0 {
		cfg.Bin = 10 * Second
	}
	if cfg.RecoveryTolerance <= 0 || cfg.RecoveryTolerance >= 1 {
		cfg.RecoveryTolerance = 0.2
	}
}

// controllerName resolves which registry controller the config deploys,
// empty for none: the explicit Controller field, or the legacy Mode's
// wrapper name.
func (c *Config) controllerName() string {
	switch {
	case c.Controller == "":
		return c.Mode.ControllerName()
	case ctl.IsNone(c.Controller):
		return ""
	}
	return c.Controller
}

// NewChain builds a linear K-hop scenario (flow 1 runs end to end).
func NewChain(hops int, cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.Chain(eng, hops, cfg.PHY, cfg.MAC)
	return wire(cfg, eng, m, flows)
}

// NewTestbed builds the 9-router deployment of the paper's Figure 3, with
// the calibrated per-link losses of Table 1.
func NewTestbed(cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.Testbed(eng, cfg.PHY, cfg.MAC)
	return wire(cfg, eng, m, flows)
}

// NewScenario1 builds the 2-flow merge topology of Figure 5.
func NewScenario1(cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.Scenario1(eng, cfg.PHY, cfg.MAC)
	return wire(cfg, eng, m, flows)
}

// NewScenario2 builds the 3-flow topology of Figure 9.
func NewScenario2(cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.Scenario2(eng, cfg.PHY, cfg.MAC)
	return wire(cfg, eng, m, flows)
}

// NewTree builds the §7 downlink tree: a gateway fanning out to
// branching^depth leaves, one flow per leaf (flow ids 1..#leaves), with
// one per-successor MAC queue at every interior node (the 802.11e-style
// multi-queue deployment the paper's conclusion proposes). If no flows
// are passed, a saturating CBR flow per leaf is created sharing the
// gateway's capacity.
func NewTree(branching, depth int, cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.Tree(eng, branching, depth, cfg.PHY, cfg.MAC)
	if len(flows) == 0 {
		leaves := mesh.TreeLeaves(branching, depth)
		for f := 1; f <= leaves; f++ {
			flows = append(flows, FlowSpec{Flow: FlowID(f), RateBps: 2e6 / float64(leaves)})
		}
	}
	return wire(cfg, eng, m, flows)
}

// NewGrid builds a w×h lattice scenario: gateway N0 at the origin, flow 1
// from the far corner and (in 2-D grids) flow 2 from the bottom-right
// corner, both routed to the gateway (see mesh.Grid for the geometry).
// With no explicit flows, every installed route gets a saturating 2 Mb/s
// CBR source.
func NewGrid(w, h int, cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.Grid(eng, w, h, cfg.PHY, cfg.MAC)
	return wire(cfg, eng, m, defaultFlows(m, flows))
}

// NewRandom builds an n-node random-disk scenario: gateway at the disk
// centre, nodes placed uniformly from cfg.Seed (connectivity-validated,
// resampled until the range graph is connected), and flow 1 from the
// farthest node to the gateway along a deterministic shortest-hop path.
// radius <= 0 selects mesh.DefaultDiskRadius(n). The same (n, radius,
// cfg.Seed) always yields the identical topology.
func NewRandom(n int, radius float64, cfg Config, flows ...FlowSpec) *Scenario {
	return NewRandomLossy(n, radius, 0, cfg, flows...)
}

// NewRandomLossy builds the same scenario as NewRandom over a disk with
// an edge-of-range loss model: every link of length d beyond half the
// transmission range erases with probability ramping quadratically up to
// edgeLoss at the range limit (mesh.ApplyEdgeLoss), the heterogeneous
// link quality real deployments measure. edgeLoss 0 is exactly NewRandom.
// Pair it with Config.Routing "etx" to let link-quality routing route
// around the marginal links the default minimum-hop path happily crosses.
func NewRandomLossy(n int, radius, edgeLoss float64, cfg Config, flows ...FlowSpec) *Scenario {
	fillDefaults(&cfg)
	eng := sim.NewEngine(cfg.Seed)
	m := mesh.RandomDiskLossy(eng, n, radius, cfg.Seed, edgeLoss, cfg.PHY, cfg.MAC)
	return wire(cfg, eng, m, defaultFlows(m, flows))
}

// defaultFlows returns the given flows, or a saturating 2 Mb/s CBR spec
// per installed route when none were passed.
func defaultFlows(m *mesh.Mesh, flows []FlowSpec) []FlowSpec {
	if len(flows) > 0 {
		return flows
	}
	for _, f := range m.Flows() {
		flows = append(flows, FlowSpec{Flow: f, RateBps: 2e6})
	}
	return flows
}

func wire(cfg Config, eng *sim.Engine, m *mesh.Mesh, flows []FlowSpec) *Scenario {
	// Routing strategy, resolved through the internal/routing registry
	// before anything observes the mesh (controller deployments and
	// dynamics read the installed routes). The default ("" or "bfs") keeps
	// the builder-installed minimum-hop routes untouched — byte-identical
	// to the pre-registry simulator — and only drives later route repair;
	// any other strategy recomputes every route now, against the
	// calibrated link losses, so it shapes the run from t=0.
	if name := cfg.Routing; name != "" {
		info, err := routing.Strategies.Lookup(name)
		if err != nil {
			panic("ezflow: " + err.Error())
		}
		m.SetStrategy(info.New())
		if !routing.IsDefault(name) {
			if err := m.RecomputeRoutes(); err != nil {
				panic(fmt.Sprintf("ezflow: %v", err))
			}
		}
	}

	// Gateway-scale workload expansion: extra client flows routed through
	// the strategy resolved above, with activity schedules drawn from a
	// dedicated seed-derived RNG (see workload.go). Before metering so the
	// population is metered like any explicit flow.
	var wlSched map[FlowID][]traffic.Segment
	if cfg.Workload != nil {
		var err error
		flows, wlSched, err = expandWorkload(&cfg, m, flows)
		if err != nil {
			panic(fmt.Sprintf("ezflow: %v", err))
		}
	}

	sc := &Scenario{
		Cfg:         cfg,
		Eng:         eng,
		Mesh:        m,
		Sources:     make(map[FlowID]*traffic.Source),
		Meters:      make(map[FlowID]*stats.FlowMeter),
		QueueTraces: make(map[NodeID]*stats.Series),
		specs:       flows,
	}

	// Metering: one FlowMeter per flow, fed by the mesh sink.
	for _, fs := range flows {
		sc.Meters[fs.Flow] = stats.NewFlowMeter(cfg.Bin)
	}
	m.AddSink(func(p *pkt.Packet, at sim.Time) {
		if mt := sc.Meters[p.Flow]; mt != nil {
			mt.OnDeliver(at, p.Created, p.Bytes)
		}
	})

	// Sources, each armed by one activity schedule: a workload flow's
	// generated segments, or an explicit flow's single segment from Start
	// to Stop (the run's end when unset).
	for _, fs := range flows {
		if fs.Start < 0 || fs.Stop < 0 || fs.Bytes < 0 || (fs.Stop > 0 && fs.Stop <= fs.Start) {
			panic(fmt.Sprintf("ezflow: flow %d: start %v, stop %v, bytes %d: want non-negative values and a stop after the start",
				int(fs.Flow), fs.Start, fs.Stop, fs.Bytes))
		}
		if fs.Start >= cfg.Duration {
			panic(fmt.Sprintf("ezflow: flow %d starts at %v, at or after the run's end %v", int(fs.Flow), fs.Start, cfg.Duration))
		}
		var src *traffic.Source
		if fs.Poisson {
			src = traffic.NewPoisson(m, fs.Flow, fs.RateBps, fs.Bytes)
		} else {
			src = traffic.NewCBR(m, fs.Flow, fs.RateBps, fs.Bytes)
		}
		segs, ok := wlSched[fs.Flow]
		if !ok {
			stop := fs.Stop
			if stop <= 0 {
				stop = cfg.Duration
			}
			segs = []traffic.Segment{{Start: fs.Start, Stop: stop}}
		}
		src.ApplySchedule(segs)
		sc.Sources[fs.Flow] = src
	}

	// Controller deployment, resolved through the internal/ctl registry:
	// Config.Controller wins, the legacy Mode otherwise.
	if name := cfg.controllerName(); name != "" {
		info, err := ctl.Controllers.Lookup(name)
		if err != nil {
			panic("ezflow: " + err.Error())
		}
		sc.Ctl = info.Deploy(m, cfg.Ctl)
	}

	// Queue traces at every node. A trace's storage, sized to every
	// sample the run can take, is allocated at its first tick rather
	// than here, so wiring a large mesh stays cheap.
	samples := int(cfg.Duration/queueSample) + 1
	for _, n := range m.Nodes() {
		s := &stats.Series{Name: "queue-" + n.ID.String()}
		sc.QueueTraces[n.ID] = s
		var tick func()
		tick = func() {
			if s.Points == nil {
				s.Points = make([]stats.Point, 0, samples)
			}
			s.Add(eng.Now(), float64(n.MAC.TotalQueued()))
			eng.Schedule(queueSample, tick)
		}
		eng.Schedule(queueSample, tick)
	}

	// Perturbation timeline, scheduled up front so the run stays a pure
	// function of (scenario, seed).
	if cfg.Dynamics != nil && len(cfg.Dynamics.Events) > 0 {
		for _, ev := range cfg.Dynamics.Events {
			if ev.At > cfg.Duration {
				panic(fmt.Sprintf("ezflow: %v event at %v is after the run's end %v", ev.Kind, ev.At, cfg.Duration))
			}
		}
		if err := sc.AddDynamics(cfg.Dynamics); err != nil {
			panic(fmt.Sprintf("ezflow: %v", err))
		}
	}

	// Mobility. A nil config or off model attaches nothing — zero events,
	// zero RNG reads — keeping static runs byte-identical.
	if cfg.Mobility != nil && !mobility.IsOff(cfg.Mobility.Model) {
		mcfg := *cfg.Mobility
		if mcfg.Seed == 0 {
			mcfg.Seed = cfg.Seed
		}
		if mcfg.UntilSec <= 0 {
			mcfg.UntilSec = cfg.Duration.Seconds()
		}
		if mcfg.Fixed == nil {
			// The gateway is mains-powered street furniture, not a
			// commuter: pinned unless the caller says otherwise (an empty
			// non-nil list pins nothing).
			mcfg.Fixed = []NodeID{0}
		}
		mob, err := mobility.Attach(m, mcfg)
		if err != nil {
			panic(fmt.Sprintf("ezflow: %v", err))
		}
		sc.Mob = mob
	}
	return sc
}

// AddDynamics attaches a perturbation script to a wired scenario, or
// appends further events if one is already attached. It must be called
// before Run; event times are absolute simulation times. Route repair
// runs through mesh.Repair, whose hooks re-extend the deployed controller
// over the queues a repair creates.
func (sc *Scenario) AddDynamics(script *dynamics.Script) error {
	if sc.ran {
		panic("ezflow: AddDynamics after Run")
	}
	if sc.Dyn != nil {
		return sc.Dyn.Append(script)
	}
	dyn, err := dynamics.Attach(sc.Mesh, sc.Sources, script)
	if err != nil {
		return err
	}
	sc.Dyn = dyn
	return nil
}

// FlowResult summarises one flow.
type FlowResult struct {
	Flow               FlowID
	Delivered          uint64
	MeanThroughputKbps float64
	StdThroughputKbps  float64
	MeanDelaySec       float64
	MaxDelaySec        float64
	P95DelaySec        float64
	Throughput         *stats.Series
	Delay              *stats.Series
}

// Result is the outcome of a scenario run.
type Result struct {
	Cfg      Config
	Flows    map[FlowID]*FlowResult
	Fairness float64 // Jain index over per-flow mean throughputs
	AggKbps  float64 // cumulative mean throughput
	// QueueTraces maps node -> sampled total MAC backlog series.
	QueueTraces map[NodeID]*stats.Series
	// MeanQueue maps node -> time-average backlog.
	MeanQueue map[NodeID]float64
	// CWTraces maps "node->succ" -> contention window trace points
	// (EZ-Flow mode only).
	CWTraces map[string][]ez.CWPoint
	// FinalCW maps "node->succ" -> cw at the end of the run.
	FinalCW map[string]int
	// Overhead reports extra control bytes put on the air: 0 for EZ-Flow
	// and plain 802.11 (message-free), positive for the explicit-signalling
	// controllers (diffq, backpressure, feedback).
	OverheadBytes uint64
	// Stability carries the fault-recovery metrics; non-nil only when a
	// dynamics script fired at least one fault event during the run.
	Stability *StabilityResult
	// DynamicsLog lists every applied perturbation in execution order
	// (empty without a dynamics script).
	DynamicsLog []dynamics.Applied
	// MobilityStats counts what the mobility engine did (ticks, moves,
	// deferrals, repairs); non-nil only when a mobility model ran.
	MobilityStats *mobility.Stats
	// Obs is the final metrics snapshot, non-nil only when the scenario
	// ran with metrics enabled (EnableObs).
	Obs *obs.Snapshot
}

// Run executes the scenario until cfg.Duration and summarises. It can only
// be called once per scenario.
func (sc *Scenario) Run() *Result {
	if sc.ran {
		panic("ezflow: scenario already run")
	}
	sc.ran = true
	sc.Eng.Run(sc.Cfg.Duration)
	now := sc.Eng.Now()

	res := &Result{
		Cfg:         sc.Cfg,
		Flows:       make(map[FlowID]*FlowResult),
		QueueTraces: make(map[NodeID]*stats.Series),
		MeanQueue:   make(map[NodeID]float64),
		CWTraces:    make(map[string][]ez.CWPoint),
		FinalCW:     make(map[string]int),
	}

	var thr []float64
	var flowIDs []FlowID
	for f := range sc.Meters {
		flowIDs = append(flowIDs, f)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, f := range flowIDs {
		mt := sc.Meters[f]
		mt.Close(now)
		w := mt.Throughput.Window(sc.Cfg.WarmupSkip, now)
		dl := mt.Delay.Window(sc.Cfg.WarmupSkip, now)
		fr := &FlowResult{
			Flow:               f,
			Delivered:          mt.Delivered,
			MeanThroughputKbps: w.Mean(),
			StdThroughputKbps:  w.Std(),
			MeanDelaySec:       dl.Mean(),
			MaxDelaySec:        dl.Max(),
			P95DelaySec:        dl.Percentile(95),
			Throughput:         &mt.Throughput,
			Delay:              &mt.Delay,
		}
		res.Flows[f] = fr
		thr = append(thr, fr.MeanThroughputKbps)
		res.AggKbps += fr.MeanThroughputKbps
	}
	res.Fairness = stats.JainIndex(thr)

	for id, s := range sc.QueueTraces {
		res.QueueTraces[id] = s
		res.MeanQueue[id] = s.Mean()
	}
	if dep, ok := sc.Ctl.(*ctl.Deployment); ok {
		for _, r := range dep.Relays {
			if c, ok := r.State.(*ez.Controller); ok {
				key := fmt.Sprintf("%v->%v", r.Node, r.Successor)
				res.CWTraces[key] = c.CWTrace
				res.FinalCW[key] = r.Caps.Window()
			}
		}
	}
	if sc.Ctl != nil {
		res.OverheadBytes = sc.Ctl.OverheadBytes()
	}
	if sc.Dyn != nil {
		res.DynamicsLog = sc.Dyn.Log
		res.Stability = computeStability(sc, res)
	}
	if sc.Mob != nil {
		st := sc.Mob.Stats
		res.MobilityStats = &st
	}
	if sc.Obs != nil && sc.Obs.Reg != nil {
		res.Obs = sc.Obs.Reg.Snapshot(now)
	}
	return res
}

// FlowWindowKbps reports a flow's mean and std throughput within [from,to),
// used for the per-period tables of the paper (Tables 2 and 3).
func (r *Result) FlowWindowKbps(f FlowID, from, to Time) (mean, std float64) {
	fr := r.Flows[f]
	if fr == nil {
		return 0, 0
	}
	w := fr.Throughput.Window(from, to)
	return w.Mean(), w.Std()
}

// FlowWindowDelay reports a flow's mean end-to-end delay within [from,to).
func (r *Result) FlowWindowDelay(f FlowID, from, to Time) float64 {
	fr := r.Flows[f]
	if fr == nil {
		return 0
	}
	return fr.Delay.Window(from, to).Mean()
}

// FairnessWindow computes Jain's index over the flows' mean throughputs
// within [from,to), restricted to the listed flows.
func (r *Result) FairnessWindow(from, to Time, flows ...FlowID) float64 {
	var thr []float64
	for _, f := range flows {
		m, _ := r.FlowWindowKbps(f, from, to)
		thr = append(thr, m)
	}
	return stats.JainIndex(thr)
}
