package ezflow_test

import (
	"cmp"
	"slices"
	"testing"

	"ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/mesh"
	"ezflow/internal/mobility"
	"ezflow/internal/obs"
)

// legacyRoute is the per-flow repair search the mesh ran before route
// repair walked the PHY neighbor index, kept as the oracle: every node
// id is a candidate of every dequeued node, the parents live in a map,
// and the search stops as soon as it discovers dst.
func legacyRoute(ids []ezflow.NodeID, usable func(a, b ezflow.NodeID) bool, src, dst ezflow.NodeID) ([]ezflow.NodeID, bool) {
	parent := map[ezflow.NodeID]ezflow.NodeID{src: src}
	queue := []ezflow.NodeID{src}
	found := false
	for len(queue) > 0 && !found {
		u := queue[0]
		queue = queue[1:]
		for _, v := range ids {
			if _, seen := parent[v]; seen || !usable(u, v) {
				continue
			}
			parent[v] = u
			if v == dst {
				found = true
				break
			}
			queue = append(queue, v)
		}
	}
	if !found {
		return nil, false
	}
	var rev []ezflow.NodeID
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	slices.Reverse(rev)
	return rev, true
}

// repairOracle checks repair rounds against legacyRoute. Given the
// routes a round starts from, expect computes what the legacy search
// would install: its path where it finds one, the old route where it
// does not. After the round every installed route must equal that.
type repairOracle struct {
	t       *testing.T
	m       *mesh.Mesh
	want    map[ezflow.FlowID][]ezflow.NodeID
	rounds  int
	changed int
}

// routes copies every flow's installed route.
func routes(m *mesh.Mesh) map[ezflow.FlowID][]ezflow.NodeID {
	out := make(map[ezflow.FlowID][]ezflow.NodeID)
	for _, f := range m.Flows() {
		out[f] = slices.Clone(m.Route(f))
	}
	return out
}

func (o *repairOracle) expect(usable func(a, b ezflow.NodeID) bool, prev map[ezflow.FlowID][]ezflow.NodeID) {
	ids := o.m.Ch.NodeIDs()
	o.want = make(map[ezflow.FlowID][]ezflow.NodeID)
	for f, route := range prev {
		o.want[f] = route
		if p, ok := legacyRoute(ids, usable, route[0], route[len(route)-1]); ok {
			o.want[f] = p
		}
	}
}

// watch checks every repair round of the mesh against the legacy
// search over usable, from a mesh.OnRepair hook. Routes change only in
// rounds, so each round starts from the routes the last one left, and
// usable does not depend on routes, so the expectation can be computed
// after the round.
func (o *repairOracle) watch(usable func(a, b ezflow.NodeID) bool) {
	prev := routes(o.m)
	o.m.OnRepair(func() {
		o.expect(usable, prev)
		o.check(prev)
		prev = routes(o.m)
	})
}

func (o *repairOracle) check(prev map[ezflow.FlowID][]ezflow.NodeID) {
	o.t.Helper()
	o.rounds++
	for _, f := range o.m.Flows() {
		got, want := o.m.Route(f), o.want[f]
		if !slices.Equal(got, want) {
			o.t.Fatalf("repair round %d, flow %v: installed %v, legacy search %v", o.rounds, f, got, want)
		}
		if !slices.Equal(got, prev[f]) {
			o.changed++
		}
	}
}

// mobileDisk is the mobile workload's shape at test length: a 200-node
// EZ-flow random disk in waypoint motion serving 16 on/off downlink
// clients, so every client flow shares the gateway as its source.
func mobileDisk(seed int64) *ezflow.Scenario {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 20 * ezflow.Second
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Mobility = &mobility.Config{
		Model:   "waypoint",
		Opts:    mobility.Options{SpeedMps: 15, PauseSec: 1},
		TickSec: 0.5,
	}
	cfg.Workload = &ezflow.WorkloadSpec{Clients: 16, OnMeanSec: 3, OffMeanSec: 3}
	return ezflow.NewRandom(200, 0, cfg)
}

// TestRepairMatchesLegacySearch runs mobility repair, with and without a
// dynamics timeline of down nodes and severed links, and checks every
// round installs exactly the routes the legacy per-flow all-ids search
// would have.
func TestRepairMatchesLegacySearch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	t.Run("mobility", func(t *testing.T) {
		sc := mobileDisk(1)
		m := sc.Mesh
		o := &repairOracle{t: t, m: m}
		usable := func(a, b ezflow.NodeID) bool {
			return !m.Node(a).MAC.Down() && !m.Node(b).MAC.Down() &&
				!m.Ch.LinkDown(a, b) && m.Ch.InTxRange(a, b)
		}
		o.watch(usable)
		sc.Run()
		if o.rounds < 10 || o.changed == 0 {
			t.Fatalf("%d repair rounds changed %d routes; waypoint motion should force both", o.rounds, o.changed)
		}
		t.Logf("%d rounds, %d route changes", o.rounds, o.changed)
	})

	t.Run("dynamics", func(t *testing.T) {
		sc := mobileDisk(2)
		m := sc.Mesh
		var script dynamics.Script
		at := func(s float64) ezflow.Time { return ezflow.Time(s * float64(ezflow.Second)) }
		for i, f := range m.Flows() {
			route := m.Route(f)
			if len(route) < 3 {
				continue
			}
			start := 1 + float64(i%8)
			a, b := dynamics.MiddleLink(m, f)
			script.Events = append(script.Events, dynamics.Flap(a, b, at(start), at(start+6), true)...)
			if relay := dynamics.MiddleRelay(m, f); relay != 0 && i%2 == 0 {
				script.Events = append(script.Events, dynamics.Churn(relay, at(start+0.5), at(start+9), false, true)...)
			}
			if i == 3 {
				// A halted destination leaves its flow no path: the failed
				// repair must keep the old route.
				script.Events = append(script.Events, dynamics.Churn(route[len(route)-1], at(2), at(5), false, true)...)
			}
		}
		if err := sc.AddDynamics(&script); err != nil {
			t.Fatal(err)
		}
		// The oracle's predicate keeps its own up/down books: each round,
		// before the oracle checks it, a hook replays the events the engine
		// has applied so far (its Log's length) in firing order — time,
		// then script order.
		events := slices.Clone(script.Events)
		slices.SortStableFunc(events, func(x, y dynamics.Event) int { return cmp.Compare(x.At, y.At) })
		downNode := make(map[ezflow.NodeID]bool)
		downLink := make(map[[2]ezflow.NodeID]bool)
		replayed := 0
		m.OnRepair(func() {
			for ; replayed < len(sc.Dyn.Log); replayed++ {
				ev := events[replayed]
				switch ev.Kind {
				case dynamics.NodeDown, dynamics.NodeUp:
					downNode[ev.Node] = ev.Kind == dynamics.NodeDown
				case dynamics.LinkDown, dynamics.LinkUp:
					downLink[[2]ezflow.NodeID{ev.A, ev.B}] = ev.Kind == dynamics.LinkDown
					downLink[[2]ezflow.NodeID{ev.B, ev.A}] = ev.Kind == dynamics.LinkDown
				}
			}
		})
		o := &repairOracle{t: t, m: m}
		o.watch(func(a, b ezflow.NodeID) bool {
			return !downNode[a] && !downNode[b] && !downLink[[2]ezflow.NodeID{a, b}] && m.Ch.InTxRange(a, b)
		})
		sc.Run()
		if o.rounds < 10 || o.changed == 0 {
			t.Fatalf("%d repair rounds changed %d routes; the timeline should force both", o.rounds, o.changed)
		}
		if len(sc.Dyn.Log) == 0 || m.RerouteFailures() == 0 {
			t.Fatalf("the timeline applied %d events and failed %d repairs; it should do both", len(sc.Dyn.Log), m.RerouteFailures())
		}
		t.Logf("%d rounds, %d route changes, %d events, %d failed repairs", o.rounds, o.changed, len(sc.Dyn.Log), m.RerouteFailures())
	})
}

// TestNoRouteDropsGauge checks the mesh.drops_noroute gauge: zero on a
// static chain, and on the mobile disk, where repairs move routes under
// packets in flight, non-zero and the sum of the per-flow counts.
func TestNoRouteDropsGauge(t *testing.T) {
	gauge := func(sc *ezflow.Scenario) float64 {
		t.Helper()
		sc.EnableObs(obs.Config{Metrics: true})
		for _, m := range sc.Run().Obs.Metrics {
			if m.Name == "mesh.drops_noroute" {
				return m.Value
			}
		}
		t.Fatal("snapshot has no mesh.drops_noroute")
		return 0
	}
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 20 * ezflow.Second
	if got := gauge(ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})); got != 0 {
		t.Errorf("static chain: mesh.drops_noroute = %g, want 0", got)
	}
	sc := mobileDisk(1)
	got := gauge(sc)
	var want uint64
	for _, f := range sc.Mesh.Flows() {
		want += sc.Mesh.NoRouteDrops(f)
	}
	if got == 0 || got != float64(want) {
		t.Errorf("mobile disk: mesh.drops_noroute = %g, per-flow sum %d; want equal and non-zero", got, want)
	}
}
