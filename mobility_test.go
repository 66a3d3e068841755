package ezflow

import (
	"testing"

	"ezflow/internal/mobility"
)

// mobileGridConfig is a short mobile-grid run used across the tests
// below: 3x3 grid, EZ-Flow, waypoint mobility at vehicular speed so
// decode-range membership actually changes within the horizon.
func mobileGridConfig(model string) Config {
	cfg := DefaultConfig()
	cfg.Mode = ModeEZFlow
	cfg.Duration = 30 * Second
	cfg.Mobility = &mobility.Config{
		Model: model,
		Opts:  mobility.Options{SpeedMps: 20, PauseSec: 1},
	}
	return cfg
}

// TestMobilityOffByteIdentical pins the subsystem's first determinism
// rule: a nil Mobility config and every off spelling produce the exact
// run — same deliveries, same throughput series — because mobility-off
// attaches nothing and schedules nothing.
func TestMobilityOffByteIdentical(t *testing.T) {
	run := func(mob *mobility.Config) *Result {
		cfg := DefaultConfig()
		cfg.Mode = ModeEZFlow
		cfg.Duration = 30 * Second
		cfg.Mobility = mob
		return NewGrid(3, 3, cfg).Run()
	}
	base := run(nil)
	for _, model := range []string{"", "off", "static"} {
		got := run(&mobility.Config{Model: model})
		if got.MobilityStats != nil {
			t.Fatalf("model %q: off run reported mobility stats %+v", model, got.MobilityStats)
		}
		for f, fr := range base.Flows {
			g := got.Flows[f]
			if g.Delivered != fr.Delivered || g.MeanThroughputKbps != fr.MeanThroughputKbps ||
				g.MeanDelaySec != fr.MeanDelaySec {
				t.Fatalf("model %q flow %v diverged from nil-mobility run: %+v vs %+v",
					model, f, g, fr)
			}
		}
	}
}

// TestMobilityEndToEnd runs waypoint mobility through the full public
// API and checks the engine actually drove the mesh: ticks fired, nodes
// moved, the pinned gateway did not, repairs happened, the rebuilt
// index still matches the oracle, and traffic kept flowing.
func TestMobilityEndToEnd(t *testing.T) {
	sc := NewGrid(3, 3, mobileGridConfig("waypoint"))
	gw := sc.Mesh.Ch.Position(0)
	res := sc.Run()
	st := res.MobilityStats
	if st == nil {
		t.Fatal("mobile run reported no mobility stats")
	}
	if st.Ticks == 0 || st.Moves == 0 {
		t.Fatalf("engine idle: %+v", st)
	}
	if st.Repairs == 0 {
		t.Fatalf("20 m/s on a 200 m grid must change decode membership: %+v", st)
	}
	if sc.Mesh.Ch.Position(0) != gw {
		t.Fatalf("gateway moved to %v despite the default pin", sc.Mesh.Ch.Position(0))
	}
	if err := sc.Mesh.Ch.VerifyIndex(); err != nil {
		t.Fatalf("index diverged from oracle after mobile run: %v", err)
	}
	var delivered uint64
	for _, fr := range res.Flows {
		delivered += fr.Delivered
	}
	if delivered == 0 {
		t.Fatal("no packet delivered during the mobile run")
	}
}

// TestMobilityDeterministicReplay: two identical mobile runs are
// identical, end to end.
func TestMobilityDeterministicReplay(t *testing.T) {
	run := func() *Result { return NewGrid(3, 3, mobileGridConfig("waypoint")).Run() }
	a, b := run(), run()
	if *a.MobilityStats != *b.MobilityStats {
		t.Fatalf("mobility stats diverged: %+v vs %+v", a.MobilityStats, b.MobilityStats)
	}
	for f, fr := range a.Flows {
		g := b.Flows[f]
		if g.Delivered != fr.Delivered || g.MeanThroughputKbps != fr.MeanThroughputKbps {
			t.Fatalf("flow %v replay diverged: %+v vs %+v", f, g, fr)
		}
	}
}

// TestWorkloadDownlinkPopulation expands a downlink population and
// checks allocation: flow ids above the builder's, routes from the
// gateway to ascending non-gateway clients, everyone metered, and data
// delivered on the always-on shape.
func TestWorkloadDownlinkPopulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 30 * Second
	cfg.Workload = &WorkloadSpec{Clients: 5, RateBps: 100e3}
	sc := NewGrid(3, 3, cfg)
	// Grid(3,3) installs flows 1 and 2; the population is 3..7.
	for fid := FlowID(3); fid <= 7; fid++ {
		route := sc.Mesh.Route(fid)
		if len(route) < 2 || route[0] != 0 {
			t.Fatalf("client flow %v route %v does not start at the gateway", fid, route)
		}
		if sc.Meters[fid] == nil || sc.Sources[fid] == nil {
			t.Fatalf("client flow %v not metered/sourced", fid)
		}
	}
	res := sc.Run()
	for fid := FlowID(3); fid <= 7; fid++ {
		if res.Flows[fid].Delivered == 0 {
			t.Fatalf("always-on client flow %v delivered nothing", fid)
		}
	}
}

// TestWorkloadUplinkAndShapes covers the uplink direction and both
// random activity shapes, pinning that runs are replay-deterministic
// (all schedule randomness comes from the dedicated workload RNG).
func TestWorkloadUplinkAndShapes(t *testing.T) {
	shapes := map[string]WorkloadSpec{
		"onoff":   {Kind: WorkloadUplink, Clients: 4, OnMeanSec: 2, OffMeanSec: 3},
		"arrival": {Kind: WorkloadUplink, Clients: 4, ArrivalPerSec: 0.3, HoldMeanSec: 4},
	}
	for name, spec := range shapes {
		spec := spec
		run := func() *Result {
			cfg := DefaultConfig()
			cfg.Duration = 60 * Second
			cfg.Workload = &spec
			sc := NewGrid(3, 3, cfg)
			for fid := FlowID(3); fid <= 6; fid++ {
				route := sc.Mesh.Route(fid)
				if len(route) < 2 || route[len(route)-1] != 0 {
					t.Fatalf("%s: uplink flow %v route %v does not end at the gateway", name, fid, route)
				}
			}
			return sc.Run()
		}
		a, b := run(), run()
		anyActive := false
		for fid := FlowID(3); fid <= 6; fid++ {
			if a.Flows[fid].Delivered != b.Flows[fid].Delivered {
				t.Fatalf("%s: flow %v replay diverged: %d vs %d",
					name, fid, a.Flows[fid].Delivered, b.Flows[fid].Delivered)
			}
			if a.Flows[fid].Delivered > 0 {
				anyActive = true
			}
		}
		if !anyActive {
			t.Fatalf("%s: no client ever delivered over 60 s", name)
		}
	}
}

// TestWorkloadValidate exercises the spec's error surface.
func TestWorkloadValidate(t *testing.T) {
	bad := []WorkloadSpec{
		{Clients: 0},
		{Clients: 3, Kind: "sideways"},
		{Clients: 3, RateBps: -1},
		{Clients: 3, OnMeanSec: 1},     // half an on/off pair
		{Clients: 3, ArrivalPerSec: 1}, // half an arrival pair
		{Clients: 3, OnMeanSec: 1, OffMeanSec: 1, ArrivalPerSec: 1}, // both shapes
		{Clients: 3, OnMeanSec: -1, OffMeanSec: 1},                  // negative mean
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d (%+v): accepted", i, w)
		}
	}
	good := WorkloadSpec{Clients: 3, OnMeanSec: 1, OffMeanSec: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestMobileWorkloadCombined is the gateway-scale headline scenario:
// a mobile mesh serving a bursty downlink population, end to end.
func TestMobileWorkloadCombined(t *testing.T) {
	cfg := mobileGridConfig("waypoint")
	cfg.Workload = &WorkloadSpec{Clients: 6, OnMeanSec: 3, OffMeanSec: 3}
	sc := NewGrid(3, 3, cfg)
	res := sc.Run()
	if res.MobilityStats == nil || res.MobilityStats.Moves == 0 {
		t.Fatalf("mobility idle under combined load: %+v", res.MobilityStats)
	}
	if err := sc.Mesh.Ch.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 8 { // 2 builder flows + 6 clients
		t.Fatalf("expected 8 metered flows, got %d", len(res.Flows))
	}
}

// BenchmarkWaypointDisk200 is the bench-gate entry for mobility at
// gateway scale: a 200-node random disk with waypoint movement and the
// default rim flow, 2 simulated seconds per iteration. It exercises
// batched moves with their index rebuilds, and repair on a realistic
// topology.
func BenchmarkWaypointDisk200(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Duration = 2 * Second
		cfg.Mobility = &mobility.Config{
			Model:   "waypoint",
			Opts:    mobility.Options{SpeedMps: 15},
			TickSec: 0.25,
		}
		res := NewRandom(200, 0, cfg).Run()
		if res.MobilityStats == nil || res.MobilityStats.Ticks == 0 {
			b.Fatal("mobility did not run")
		}
	}
}
