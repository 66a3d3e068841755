package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ezflow"
	ez "ezflow/internal/ezflow"
	"ezflow/internal/scenario"
	"ezflow/internal/stats"
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
		// The campaign axis rows canonicalise spellings: the 802.11 mode is
		// no wrapper controller at all, and every none spelling is 802.11.
		{[]string{"-mode", "802.11"}, func(s *scenario.Spec) { s.Mode = "" }},
		{[]string{"-controller", "backpressure"}, func(s *scenario.Spec) { s.Mode, s.Controller = "", "backpressure" }},
		{[]string{"-controller", "off"}, func(s *scenario.Spec) { s.Mode, s.Controller = "", "802.11" }},
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
		{[]string{"-speed", "3"}, "speed and pause need a mobility model"},
		{[]string{"-mobility", "waypoint", "-speed", "0"}, `bad speed "0"`},
		{[]string{"-rate", "0"}, `bad rate "0"`},
		{[]string{"-rate", "-1"}, `bad rate "-1"`},
		{[]string{"-cap", "-5"}, `bad cw cap "-5"`},
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

// TestFlowsPastTheEnd pins that a flow starting at or after the run's
// end, set by the file's duration or by -duration, fails the build naming
// the flow instead of running silently at 0 kb/s.
func TestFlowsPastTheEnd(t *testing.T) {
	for _, c := range []struct {
		start string
		args  []string
	}{
		{"100", nil},
		{"60", nil},
		{"30", []string{"-duration", "20"}},
	} {
		file := writeSpec(t, `{"topology": {"kind": "chain", "hops": 2}, "duration_sec": 60, "flows": [{"id": 1, "start_sec": `+c.start+`}]}`)
		inv, err := parseArgs(append([]string{"-scenario", file}, c.args...))
		if err == nil {
			_, err = inv.build()
		}
		if err == nil || !strings.Contains(err.Error(), "flow 1 starts at") {
			t.Errorf("start_sec %s %v: error %v, want one naming flow 1", c.start, c.args, err)
		}
	}
	if _, err := parseArgs([]string{"-scenario", writeSpec(t, `{"topology": {"kind": "chain", "hops": 2},
	  "dynamics": [{"at_sec": 30, "kind": "link-down", "a": 1, "b": 2}]}`), "-duration", "20"}); err == nil {
		t.Error("dynamics event at 30s accepted into a 20s run")
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
	if q := sc.Cfg.Ctl.PenaltyQ; q != 0.03125 {
		t.Errorf("Config.Ctl.PenaltyQ = %v, want 0.03125", q)
	}
	if cw := sc.Mesh.Node(0).SourceQueue(1).CWmin(); cw != 16*32 {
		t.Errorf("source window = %d, want %d", cw, 16*32)
	}
}

// TestTraceDir pins the -trace-dir output: one CSV per series, named
// after its node, flow or relay link, with "t_seconds,value" or
// "t_seconds,cw" headers, times in milliseconds and values in %g.
func TestTraceDir(t *testing.T) {
	var q, thr, delay stats.Series
	q.Add(ezflow.Second, 1.5)
	q.Add(2*ezflow.Second, 2)
	thr.Add(10*ezflow.Second, 259.8784)
	res := &ezflow.Result{
		QueueTraces: map[ezflow.NodeID]*stats.Series{1: &q},
		Flows:       map[ezflow.FlowID]*ezflow.FlowResult{1: {Throughput: &thr, Delay: &delay}},
		CWTraces:    map[string][]ez.CWPoint{"N0->N1": {{At: ezflow.Second, CW: 32}, {At: 90 * ezflow.Second, CW: 64}}},
	}
	dir := t.TempDir()
	if err := writeTraces(res, dir); err != nil {
		t.Fatal(err)
	}
	got := readDir(t, dir)
	file := func(t *testing.T, name, want string) {
		t.Helper()
		if got[name] != want {
			t.Fatalf("%s = %q, want %q", name, got[name], want)
		}
	}

	t.Run("series", func(t *testing.T) {
		file(t, "queue_N1.csv", "t_seconds,value\n1.000,1.5\n2.000,2\n")
		file(t, "throughput_F1.csv", "t_seconds,value\n10.000,259.8784\n")
		file(t, "delay_F1.csv", "t_seconds,value\n")
	})

	t.Run("cw", func(t *testing.T) {
		file(t, "cw_N0_to_N1.csv", "t_seconds,cw\n1.000,32\n90.000,64\n")
	})

	t.Run("names", func(t *testing.T) {
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		want := []string{"cw_N0_to_N1.csv", "delay_F1.csv", "queue_N1.csv", "throughput_F1.csv"}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("trace files %v, want %v", names, want)
		}
	})

	t.Run("bad_path", func(t *testing.T) {
		if err := writeTraces(res, "/dev/null/impossible"); err == nil {
			t.Fatal("no error for an impossible directory")
		}
	})

	t.Run("chain", func(t *testing.T) {
		res := runArgs(t, "-topology", "chain", "-hops", "3", "-mode", "ezflow", "-duration", "12")
		dir := t.TempDir()
		if err := writeTraces(res, dir); err != nil {
			t.Fatal(err)
		}
		files := readDir(t, dir)
		var names []string
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		want := []string{"cw_N0_to_N1.csv", "cw_N1_to_N2.csv", "delay_F1.csv",
			"queue_N0.csv", "queue_N1.csv", "queue_N2.csv", "queue_N3.csv", "throughput_F1.csv"}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("trace files %v, want %v", names, want)
		}
		check := func(name, header string, ts []ezflow.Time, vs []float64) {
			t.Helper()
			lines := strings.Split(strings.TrimSuffix(files[name], "\n"), "\n")
			if lines[0] != header || len(lines) != len(ts)+1 {
				t.Fatalf("%s: header %q and %d rows; want %q and %d", name, lines[0], len(lines)-1, header, len(ts))
			}
			for i, line := range lines[1:] {
				tv, vv, _ := strings.Cut(line, ",")
				sec, err1 := strconv.ParseFloat(tv, 64)
				v, err2 := strconv.ParseFloat(vv, 64)
				if err1 != nil || err2 != nil || math.Abs(sec-ts[i].Seconds()) > 5e-4 || v != vs[i] {
					t.Fatalf("%s row %d = %q, want t=%v v=%g", name, i, line, ts[i], vs[i])
				}
			}
		}
		series := func(name string, s *stats.Series) {
			t.Helper()
			var ts []ezflow.Time
			var vs []float64
			for _, p := range s.Points {
				ts, vs = append(ts, p.T), append(vs, p.V)
			}
			check(name, "t_seconds,value", ts, vs)
		}
		for n, s := range res.QueueTraces {
			if s.Len() != 12 {
				t.Errorf("%v: %d queue samples, want 12", n, s.Len())
			}
			series(fmt.Sprintf("queue_%v.csv", n), s)
		}
		series("throughput_F1.csv", res.Flows[1].Throughput)
		series("delay_F1.csv", res.Flows[1].Delay)
		for key, tr := range res.CWTraces {
			var ts []ezflow.Time
			var vs []float64
			for _, p := range tr {
				ts, vs = append(ts, p.At), append(vs, float64(p.CW))
			}
			check("cw_"+strings.ReplaceAll(key, "->", "_to_")+".csv", "t_seconds,cw", ts, vs)
		}
	})
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}
