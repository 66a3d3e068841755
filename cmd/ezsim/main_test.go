package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ezflow"
	"ezflow/internal/scenario"
)

// writeSpec writes a scenario file into a test directory and returns its
// path.
func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runArgs resolves a command line and runs it.
func runArgs(t *testing.T, args ...string) *ezflow.Result {
	t.Helper()
	inv, err := parseArgs(args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	sc, err := inv.build()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return sc.Run()
}

// TestFlagsMatchScenarioFile pins that the topology flags describe
// exactly the run the equivalent scenario file does, for every built-in
// kind: same mesh, same default flow ids at the -rate, same result.
func TestFlagsMatchScenarioFile(t *testing.T) {
	cases := []struct {
		args []string
		file string
	}{
		{[]string{"-topology", "chain", "-hops", "3"},
			`{"topology": {"kind": "chain", "hops": 3}, "flows": [{"id": 1, "rate_bps": 5e5}]}`},
		{[]string{"-topology", "testbed"},
			`{"topology": {"kind": "testbed"}, "flows": [{"id": 1, "rate_bps": 5e5}, {"id": 2, "rate_bps": 5e5}]}`},
		{[]string{"-topology", "scenario1"},
			`{"topology": {"kind": "scenario1"}, "flows": [{"id": 1, "rate_bps": 5e5}, {"id": 2, "rate_bps": 5e5}]}`},
		{[]string{"-topology", "scenario2"},
			`{"topology": {"kind": "scenario2"}, "flows": [{"id": 1, "rate_bps": 5e5}, {"id": 2, "rate_bps": 5e5}, {"id": 3, "rate_bps": 5e5}]}`},
		// The tree keeps its per-leaf share of 2 Mb/s whatever -rate says.
		{[]string{"-topology", "tree"},
			`{"topology": {"kind": "tree"}}`},
		{[]string{"-topology", "grid", "-grid-w", "3", "-grid-h", "2"},
			`{"topology": {"kind": "grid", "width": 3, "height": 2}, "flows": [{"id": 1, "rate_bps": 5e5}, {"id": 2, "rate_bps": 5e5}]}`},
		{[]string{"-topology", "grid", "-grid-w", "1", "-grid-h", "4"},
			`{"topology": {"kind": "grid", "width": 1, "height": 4}, "flows": [{"id": 1, "rate_bps": 5e5}]}`},
		{[]string{"-topology", "random", "-nodes", "10", "-edge-loss", "0.3"},
			`{"topology": {"kind": "random", "nodes": 10, "edge_loss": 0.3}, "flows": [{"id": 1, "rate_bps": 5e5}]}`},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		kind := c.args[1]
		seen[kind] = true
		args := append(c.args, "-mode", "ezflow", "-seed", "3", "-duration", "12", "-rate", "5e5")
		got := runArgs(t, args...)
		file := writeSpec(t, strings.Replace(c.file, `{"topology"`, `{"mode": "ezflow", "seed": 3, "duration_sec": 12, "topology"`, 1))
		want := runArgs(t, "-scenario", file)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flags and scenario file give different results", strings.Join(args, " "))
		}
		if len(got.Flows) == 0 {
			t.Errorf("%s: no flows ran", kind)
		}
	}
	for _, kind := range scenario.Topologies.Names() {
		if !seen[kind] {
			t.Errorf("topology kind %q has no flags-vs-file case", kind)
		}
	}
}

// TestScenarioFlagOverrides pins that -scenario plus explicit flags
// overrides exactly the fields of the flags passed, and nothing else.
func TestScenarioFlagOverrides(t *testing.T) {
	const src = `{
	  "name": "grid-mobile",
	  "topology": {"kind": "grid", "width": 3, "height": 3},
	  "mode": "ezflow",
	  "routing": "etx",
	  "seed": 5,
	  "duration_sec": 30,
	  "cw_cap": 256,
	  "flows": [{"id": 1, "rate_bps": 4e5}, {"id": 2, "rate_bps": 3e5, "start_sec": 2}],
	  "mobility": {"model": "waypoint", "speed_mps": 2, "tick_sec": 0.25},
	  "workload": {"clients": 3, "on_mean_sec": 2, "off_mean_sec": 2}
	}`
	path := writeSpec(t, src)
	for _, c := range []struct {
		args []string
		edit func(s *scenario.Spec)
	}{
		{nil, func(*scenario.Spec) {}},
		// Flags at their default values still override when passed.
		{[]string{"-seed", "1", "-duration", "600"}, func(s *scenario.Spec) { s.Seed, s.DurationSec = 1, 600 }},
		{[]string{"-cap", "0", "-routing", "bfs"}, func(s *scenario.Spec) { s.CWCap, s.Routing = 0, "bfs" }},
		{[]string{"-mode", "802.11"}, func(s *scenario.Spec) { s.Mode = "802.11" }},
		{[]string{"-controller", "backpressure"}, func(s *scenario.Spec) { s.Mode, s.Controller = "", "backpressure" }},
		{[]string{"-controller", "off"}, func(s *scenario.Spec) { s.Mode, s.Controller = "", "off" }},
		{[]string{"-mobility", "off"}, func(s *scenario.Spec) { s.Mobility = nil }},
		{[]string{"-speed", "4", "-pause", "1"}, func(s *scenario.Spec) { s.Mobility.SpeedMps, s.Mobility.PauseSec = 4, 1 }},
		{[]string{"-clients", "7"}, func(s *scenario.Spec) { s.Workload.Clients = 7 }},
		{[]string{"-rate", "1e5"}, func(s *scenario.Spec) { s.Flows[0].RateBps, s.Flows[1].RateBps = 1e5, 1e5 }},
		{[]string{"-grid-w", "4"}, func(s *scenario.Spec) { s.Topology.Width = 4 }},
	} {
		inv, err := parseArgs(append([]string{"-scenario", path}, c.args...))
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		want, err := scenario.Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		c.edit(want)
		if !reflect.DeepEqual(inv.spec, want) {
			t.Errorf("%v: spec\n%+v\nwant\n%+v", c.args, inv.spec, want)
		}
	}
}

// TestHostileFlags pins that bad command lines fail with an error naming
// the problem rather than a panic or a silently ignored flag.
func TestHostileFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "random", "-nodes", "1"}, "nodes >= 2"},
		{[]string{"-topology", "grid", "-grid-w", "1", "-grid-h", "1"}, "at least 2 nodes"},
		{[]string{"-topology", "random", "-edge-loss", "1.5"}, "edge_loss 1.5"},
		{[]string{"-edge-loss", "1.5"}, "only applies to the random topology"},
		{[]string{"-controller", "bogus"}, `unknown controller "bogus" (registered: `},
		{[]string{"-routing", "bogus"}, `unknown routing strategy "bogus" (registered: `},
		{[]string{"-mobility", "bogus"}, `unknown mobility model "bogus" (registered: off|`},
		{[]string{"-topology", "torus"}, `unknown topology kind "torus" (registered: `},
		{[]string{"-mode", "tcp"}, `unknown mode "tcp"`},
		{[]string{"-speed", "3"}, "-speed/-pause need a mobility model"},
		{[]string{"-scenario", "/nonexistent/spec.json"}, "no such file"},
		{[]string{"-mode", "penalty", "-q", "0"}, "-q 0 out of (0,1]"},
		{[]string{"-mode", "penalty", "-q", "1.5"}, "-q 1.5 out of (0,1]"},
	} {
		_, err := parseArgs(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
	// A placement that cannot exist surfaces at build time as an error.
	inv, err := parseArgs([]string{"-topology", "random", "-radius", "5000", "-duration", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.build(); err == nil || !strings.Contains(err.Error(), "no connected") {
		t.Errorf("impossible placement: error %v, want a build error", err)
	}
}

// TestPenaltyFactorFlag pins that -q reaches the penalty controller
// through Config.Ctl: the source window is the relay window over q.
func TestPenaltyFactorFlag(t *testing.T) {
	inv, err := parseArgs([]string{"-mode", "penalty", "-q", "0.03125", "-duration", "1"})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := inv.build()
	if err != nil {
		t.Fatal(err)
	}
	if q := sc.Cfg.Ctl.Penalty.Q; q != 0.03125 {
		t.Errorf("Config.Ctl.Penalty.Q = %v, want 0.03125", q)
	}
	if cw := sc.Mesh.Node(0).SourceQueue(1).CWmin(); cw != 16*32 {
		t.Errorf("source window = %d, want %d", cw, 16*32)
	}
}
