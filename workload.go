// Gateway-scale workload generation: expanding a WorkloadSpec into a
// client flow population with precomputed activity schedules, the §7
// many-client regime the paper's conclusion targets. Expansion happens
// at wiring, routes come from the active routing strategy, and all
// schedule randomness is drawn from a dedicated RNG derived from the
// run seed — never the engine RNG — so a workload perturbs nothing
// else and the whole population is a pure function of (spec, seed).
package ezflow

import (
	"fmt"
	"math/rand"

	"ezflow/internal/mesh"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// Workload kinds accepted by WorkloadSpec.Kind.
const (
	// WorkloadDownlink sends gateway -> client (the default): the
	// internet-access traffic pattern of a real mesh gateway.
	WorkloadDownlink = "downlink"
	// WorkloadUplink sends client -> gateway.
	WorkloadUplink = "uplink"
)

// DefaultWorkloadRateBps is the per-client rate when a spec leaves
// RateBps zero: 200 kb/s, small enough that congestion comes from the
// population size rather than any single flow.
const DefaultWorkloadRateBps = 200e3

// WorkloadSpec describes a gateway-scale client flow population that is
// expanded into concrete flows at wiring. Clients are the mesh's
// non-gateway nodes in ascending id order, reused cyclically when the
// population outnumbers them; flow ids are allocated above every
// explicitly configured flow. Exactly one activity shape applies:
//
//   - neither pair set: every client is always on;
//   - OnMeanSec/OffMeanSec: each client is an exponential on/off bursty
//     source (starting silent);
//   - ArrivalPerSec/HoldMeanSec: each client slot sees Poisson flow
//     arrivals holding for exponential times (an M/G/∞ population
//     member; see traffic.ArrivalSchedule).
type WorkloadSpec struct {
	// Kind is WorkloadDownlink (default when empty) or WorkloadUplink.
	Kind string `json:"kind,omitempty"`
	// Clients is the population size (required, > 0).
	Clients int `json:"clients"`
	// RateBps is the per-client rate while active (default
	// DefaultWorkloadRateBps).
	RateBps float64 `json:"rate_bps,omitempty"`
	// Bytes is the packet size (default 1028).
	Bytes int `json:"bytes,omitempty"`
	// Gateway is the gateway node (default 0, every builder's gateway).
	Gateway NodeID `json:"gateway,omitempty"`
	// OnMeanSec and OffMeanSec select on/off bursty clients: mean burst
	// and mean silence in seconds. Set both or neither.
	OnMeanSec  float64 `json:"on_mean_sec,omitempty"`
	OffMeanSec float64 `json:"off_mean_sec,omitempty"`
	// ArrivalPerSec and HoldMeanSec select a Poisson arrival/departure
	// population: per-slot arrival rate and mean hold in seconds. Set
	// both or neither, and not together with the on/off pair.
	ArrivalPerSec float64 `json:"arrival_per_sec,omitempty"`
	HoldMeanSec   float64 `json:"hold_mean_sec,omitempty"`
}

// Validate checks the spec's internal consistency — the same check
// wiring applies, exported so the scenario and campaign layers can
// reject bad configurations before building anything.
func (w *WorkloadSpec) Validate() error {
	switch w.Kind {
	case "", WorkloadDownlink, WorkloadUplink:
	default:
		return fmt.Errorf("workload: unknown kind %q (want %q or %q)",
			w.Kind, WorkloadDownlink, WorkloadUplink)
	}
	if w.Clients <= 0 {
		return fmt.Errorf("workload: clients must be > 0, got %d", w.Clients)
	}
	if w.RateBps < 0 || w.Bytes < 0 {
		return fmt.Errorf("workload: negative rate or packet size")
	}
	onOff := w.OnMeanSec != 0 || w.OffMeanSec != 0
	arrival := w.ArrivalPerSec != 0 || w.HoldMeanSec != 0
	if onOff && arrival {
		return fmt.Errorf("workload: on/off and arrival shapes are mutually exclusive")
	}
	if onOff && (w.OnMeanSec <= 0 || w.OffMeanSec <= 0) {
		return fmt.Errorf("workload: on/off shape needs positive OnMeanSec and OffMeanSec")
	}
	if arrival && (w.ArrivalPerSec <= 0 || w.HoldMeanSec <= 0) {
		return fmt.Errorf("workload: arrival shape needs positive ArrivalPerSec and HoldMeanSec")
	}
	return nil
}

// workloadSeed derives the schedule RNG seed from the run seed with a
// splitmix64 finalizer, so workload randomness is decorrelated from
// every other seed-derived stream without consuming any of them.
func workloadSeed(seed int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// expandWorkload turns cfg.Workload into concrete flows: it allocates
// flow ids above every configured flow, routes each through the active
// routing strategy, installs the routes, and returns the extended spec
// list plus each workload flow's activity schedule (an explicit flow
// runs the one segment [Start, Stop) instead). Called from wire after
// routing resolution, before metering and source creation.
func expandWorkload(cfg *Config, m *mesh.Mesh, flows []FlowSpec) ([]FlowSpec, map[FlowID][]traffic.Segment, error) {
	w := cfg.Workload
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	if m.Node(w.Gateway) == nil {
		return nil, nil, fmt.Errorf("workload: gateway %v not in the mesh", w.Gateway)
	}
	var clients []NodeID
	for _, id := range m.Ch.NodeIDs() {
		if id != w.Gateway {
			clients = append(clients, id)
		}
	}
	if len(clients) == 0 {
		return nil, nil, fmt.Errorf("workload: no non-gateway nodes to serve")
	}
	next := FlowID(1)
	for _, f := range m.Flows() {
		if f >= next {
			next = f + 1
		}
	}
	for _, fs := range flows {
		if fs.Flow >= next {
			next = fs.Flow + 1
		}
	}
	rate := w.RateBps
	if rate == 0 {
		rate = DefaultWorkloadRateBps
	}
	rng := rand.New(rand.NewSource(workloadSeed(cfg.Seed)))
	g := m.RoutingGraph(nil)
	s := m.Strategy()
	sched := make(map[FlowID][]traffic.Segment, w.Clients)
	for k := 0; k < w.Clients; k++ {
		fid := next + FlowID(k)
		client := clients[k%len(clients)]
		src, dst := w.Gateway, client
		if w.Kind == WorkloadUplink {
			src, dst = client, w.Gateway
		}
		path, ok := s.Route(g, fid, src, dst)
		if !ok {
			return nil, nil, fmt.Errorf("workload: routing %q found no path %v -> %v for client flow %v",
				s.Name(), src, dst, fid)
		}
		m.SetRoute(fid, path)
		switch {
		case w.OnMeanSec > 0:
			sched[fid] = traffic.OnOffSchedule(rng, cfg.Duration,
				sim.FromSeconds(w.OnMeanSec), sim.FromSeconds(w.OffMeanSec))
		case w.ArrivalPerSec > 0:
			sched[fid] = traffic.ArrivalSchedule(rng, cfg.Duration,
				w.ArrivalPerSec, sim.FromSeconds(w.HoldMeanSec))
		default:
			sched[fid] = []traffic.Segment{{Start: 0, Stop: cfg.Duration}}
		}
		flows = append(flows, FlowSpec{Flow: fid, RateBps: rate, Bytes: w.Bytes})
	}
	return flows, sched, nil
}
