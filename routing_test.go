// Routing-registry integration tests: the "bfs" spelling must be
// byte-identical to the pre-registry default (including under dynamics
// repair), quality-aware strategies must be deterministic, unknown names
// must fail at wiring, and every strategy must drive route repair — with
// the EZ-Flow deployment re-extending over repair-created queues.
package ezflow_test

import (
	"fmt"
	"strings"
	"testing"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
	"ezflow/internal/routing"
)

// lossyDynamicsRun builds the repository's hardest determinism workload —
// a 24-node lossy random disk with a mid-run link flap and relay churn,
// both strategy-repaired — and returns a fingerprint of the installed
// route plus every per-flow scalar.
func lossyDynamicsRun(t *testing.T, routing string, seed int64) string {
	t.Helper()
	cfg := ezflow.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 12 * ezflow.Second
	cfg.Bin = ezflow.Second
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Routing = routing
	sc := ezflow.NewRandomLossy(24, 0, 0.35, cfg)
	var script dynamics.Script
	a, b := dynamics.MiddleLink(sc.Mesh, 1)
	script.Events = append(script.Events, dynamics.Flap(a, b, 4*ezflow.Second, 7*ezflow.Second, true)...)
	script.Events = append(script.Events, dynamics.Churn(dynamics.MiddleRelay(sc.Mesh, 1), 5*ezflow.Second, 8*ezflow.Second, true, true)...)
	if err := sc.AddDynamics(&script); err != nil {
		t.Fatal(err)
	}
	wired := fmt.Sprint(sc.Mesh.Route(1))
	res := sc.Run()
	fr := res.Flows[1]
	return fmt.Sprintf("wired=%s final=%v kbps=%v delay=%v delivered=%d agg=%v",
		wired, sc.Mesh.Route(1), fr.MeanThroughputKbps, fr.MeanDelaySec, fr.Delivered, res.AggKbps)
}

// TestRoutingDefaultByteIdentical pins the tentpole acceptance criterion:
// selecting "bfs" explicitly is byte-identical to leaving Routing empty,
// through wiring, a full lossy run, and two strategy-driven repairs.
func TestRoutingDefaultByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, seed := range []int64{1, 11} {
		legacy := lossyDynamicsRun(t, "", seed)
		named := lossyDynamicsRun(t, "bfs", seed)
		if legacy != named {
			t.Errorf("seed %d: Routing \"bfs\" diverges from default:\n  default: %s\n  bfs:     %s", seed, legacy, named)
		}
	}
}

// TestRoutingStrategiesDeterministic checks the quality-aware strategies
// are pure functions of (scenario, seed): identical routes and results
// across rebuilds.
func TestRoutingStrategiesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, name := range []string{"etx", "kshortest"} {
		a := lossyDynamicsRun(t, name, 5)
		b := lossyDynamicsRun(t, name, 5)
		if a != b {
			t.Errorf("%s: rebuild diverged:\n  %s\n  %s", name, a, b)
		}
	}
}

// TestRoutingUnknownPanics checks an unvalidated name fails at wiring
// with the registry listing (CLIs and scenario files validate first, so
// reaching this panic means a programming error).
func TestRoutingUnknownPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown routing strategy wired without panic")
		}
		if !strings.Contains(fmt.Sprint(r), "registered") {
			t.Errorf("panic %q does not list the registry", r)
		}
	}()
	cfg := ezflow.DefaultConfig()
	cfg.Routing = "warp-drive"
	ezflow.NewChain(2, cfg)
}

// TestRoutingRepairPerStrategy replays the PR 3 repair scenario under
// every registered strategy: sever the route's middle link mid-run and
// require a valid repaired route through the other relay, with the
// EZ-Flow deployment extended over the repair-created queue.
func TestRoutingRepairPerStrategy(t *testing.T) {
	for _, name := range routing.Strategies.Names() {
		cfg := ezflow.DefaultConfig()
		cfg.Mode = ezflow.ModeEZFlow
		cfg.Duration = 5 * ezflow.Second
		cfg.Routing = name
		sc := ezflow.NewGrid(2, 2, cfg,
			ezflow.FlowSpec{Flow: 1, RateBps: 4e5},
			ezflow.FlowSpec{Flow: 2, RateBps: 4e5})
		before := sc.Mesh.Route(1)
		if len(before) != 3 {
			t.Fatalf("%s: wired route %v, want 2 hops", name, before)
		}
		relayBefore := before[1]
		ctlsBefore := len(sc.Ctl.(*ctl.Deployment).Relays)

		a, b := dynamics.MiddleLink(sc.Mesh, 1)
		script := (&dynamics.Script{}).Add(dynamics.Event{
			At: 1 * ezflow.Second, Kind: dynamics.LinkDown, A: a, B: b, Reroute: true,
		})
		if err := sc.AddDynamics(script); err != nil {
			t.Fatal(err)
		}
		res := sc.Run()

		after := sc.Mesh.Route(1)
		if len(after) != 3 || after[1] == relayBefore {
			t.Errorf("%s: repair route = %v, want the other relay (was via %v)", name, after, relayBefore)
		}
		if err := sc.Mesh.CheckRoutes(); err != nil {
			t.Errorf("%s: repaired mesh invalid: %v", name, err)
		}
		// The repair must never orphan a queue: every strategy keeps the
		// deployment at least as large, and under bfs — where the repaired
		// relay's queues cannot predate the fault — strictly larger.
		// (kshortest pre-creates the alternative's queues at wiring: flow 2
		// already rides the second-ranked path, so its repair is covered.)
		got := len(sc.Ctl.(*ctl.Deployment).Relays)
		if got < ctlsBefore {
			t.Errorf("%s: deployment shrank after repair: %d -> %d controllers", name, ctlsBefore, got)
		}
		if name == "bfs" && got <= ctlsBefore {
			t.Errorf("%s: deployment did not extend over the repair-created queue: %d -> %d controllers", name, ctlsBefore, got)
		}
		if res.Flows[1].Delivered == 0 {
			t.Errorf("%s: no packets delivered across the repair", name)
		}
	}
}

// TestRoutingRepairFailureThenRecovery drives a flow into a genuine
// partition (severed link plus churned relay) and out again: the failed
// repair must be counted on the mesh.reroute_failures surface, and the
// returning node must restore a valid route.
func TestRoutingRepairFailureThenRecovery(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Duration = 5 * ezflow.Second
	sc := ezflow.NewGrid(2, 2, cfg,
		ezflow.FlowSpec{Flow: 1, RateBps: 4e5},
		ezflow.FlowSpec{Flow: 2, RateBps: 4e5})
	script := (&dynamics.Script{}).
		Add(dynamics.Event{At: 1 * ezflow.Second, Kind: dynamics.LinkDown, A: 2, B: 0, Reroute: true}).
		Add(dynamics.Event{At: 2 * ezflow.Second, Kind: dynamics.NodeDown, Node: 1, Drop: true, Reroute: true}).
		Add(dynamics.Event{At: 3 * ezflow.Second, Kind: dynamics.NodeUp, Node: 1, Reroute: true})
	if err := sc.AddDynamics(script); err != nil {
		t.Fatal(err)
	}
	sc.Run()
	if got := sc.Mesh.RerouteFailures(); got == 0 {
		t.Error("partitioned repair was not counted in RerouteFailures")
	}
	if got := sc.Mesh.Route(1); fmt.Sprint(got) != fmt.Sprint([]ezflow.NodeID{3, 1, 0}) {
		t.Errorf("post-recovery route = %v, want [3 1 0]", got)
	}
	if err := sc.Mesh.CheckRoutes(); err != nil {
		t.Errorf("recovered mesh invalid: %v", err)
	}
}
