package scenario_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/scenario"
)

const flapSpec = `{
  "name": "chain3-flap",
  "topology": {"kind": "chain", "hops": 3},
  "mode": "ezflow",
  "seed": 3,
  "duration_sec": 24,
  "flows": [{"id": 1, "rate_bps": 4e5}],
  "dynamics": [
    {"at_sec": 8, "kind": "link-down", "a": 1, "b": 2, "reroute": true},
    {"at_sec": 14, "kind": "link-up", "a": 1, "b": 2, "reroute": true}
  ]
}`

func TestParseAndBuild(t *testing.T) {
	spec, err := scenario.Parse([]byte(flapSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "chain3-flap" || spec.Topology.Hops != 3 || len(spec.Dynamics) != 2 {
		t.Fatalf("parsed spec wrong: %+v", spec)
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cfg.Mode != ezflow.ModeEZFlow || sc.Cfg.Seed != 3 {
		t.Errorf("config not applied: mode=%v seed=%d", sc.Cfg.Mode, sc.Cfg.Seed)
	}
	if sc.Dyn == nil {
		t.Fatal("dynamics not attached")
	}
	res := sc.Run()
	if res.Stability == nil {
		t.Fatal("no stability metrics from a faulted scenario")
	}
	if res.Flows[1].Delivered == 0 {
		t.Error("nothing delivered")
	}
}

// TestScenarioRunDeterminism pins the tentpole guarantee at the scenario
// level: the same JSON and seed produce an identical result, packet for
// packet, run after run.
func TestScenarioRunDeterminism(t *testing.T) {
	var results []*ezflow.Result
	for i := 0; i < 2; i++ {
		spec, err := scenario.Parse([]byte(flapSpec))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, sc.Run())
	}
	a, b := results[0], results[1]
	if a.Flows[1].Delivered != b.Flows[1].Delivered {
		t.Errorf("delivered differs: %d vs %d", a.Flows[1].Delivered, b.Flows[1].Delivered)
	}
	if !reflect.DeepEqual(a.Flows[1].Throughput.Points, b.Flows[1].Throughput.Points) {
		t.Error("throughput series differ between identical runs")
	}
	if !reflect.DeepEqual(a.DynamicsLog, b.DynamicsLog) {
		t.Error("dynamics logs differ between identical runs")
	}
	if !reflect.DeepEqual(a.Stability, b.Stability) {
		t.Error("stability metrics differ between identical runs")
	}
}

func TestBuildAllTopologyKinds(t *testing.T) {
	kinds := scenario.Topologies.Names()
	if want := []string{"chain", "grid", "random", "scenario1", "scenario2", "testbed", "tree"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("topology kinds %v, want %v", kinds, want)
	}
	for _, kind := range kinds {
		spec := &scenario.Spec{Topology: scenario.Topology{Kind: kind}, DurationSec: 1}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sc, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(sc.Mesh.Flows()) == 0 {
			t.Errorf("%s: no default flows installed", kind)
		}
	}
}

// TestDynamicsKindSpellings parses every dynamics kind by the spelling
// its String method prints, and rejects any other spelling with the
// unknown-kind error.
func TestDynamicsKindSpellings(t *testing.T) {
	event := func(kind string) []byte {
		return fmt.Appendf(nil, `{"topology": {"kind": "chain"}, "dynamics": [{"at_sec": 1, "kind": %q}]}`, kind)
	}
	for k := dynamics.LinkDown; k <= dynamics.FlowRate; k++ {
		spec, err := scenario.Parse(event(k.String()))
		if err != nil {
			t.Errorf("%v: %v", k, err)
			continue
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Dynamics.Events[0].Kind; got != k {
			t.Errorf("%q parsed as %v", k.String(), got)
		}
	}
	for _, bad := range []string{"meteor", "unknown", "", "Link-Down"} {
		want := fmt.Sprintf("scenario: dynamics[0]: unknown kind %q", bad)
		if _, err := scenario.Parse(event(bad)); err == nil || err.Error() != want {
			t.Errorf("kind %q: error %v, want %s", bad, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"topology": {"kind": "chain"}, "bogus": 1}`,
		"no kind":       `{"topology": {"hops": 3}}`,
		"bad kind":      `{"topology": {"kind": "torus"}}`,
		"bad mode":      `{"topology": {"kind": "chain"}, "mode": "tcp"}`,
		"dup flow":      `{"topology": {"kind": "chain"}, "flows": [{"id": 1}, {"id": 1}]}`,
		"zero flow id":  `{"topology": {"kind": "chain"}, "flows": [{"id": 0}]}`,
		"bad event":     `{"topology": {"kind": "chain"}, "dynamics": [{"at_sec": 1, "kind": "meteor"}]}`,
		"late event":    `{"topology": {"kind": "chain"}, "duration_sec": 10, "dynamics": [{"at_sec": 20, "kind": "link-up"}]}`,
		"one-node disk": `{"topology": {"kind": "random", "nodes": 1}}`,
		"one-node grid": `{"topology": {"kind": "grid", "width": 1, "height": 1}}`,
		"edge loss 1":   `{"topology": {"kind": "random", "edge_loss": 1}}`,
		"chain loss":    `{"topology": {"kind": "chain", "edge_loss": 0.2}}`,
	}
	for name, src := range cases {
		if _, err := scenario.Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted %s", name, src)
		}
	}
}

// TestFlowScheduleValidation pins that a flow whose stop_sec does not
// follow its start_sec, or with a negative start, stop or size, is
// rejected with an error naming the flow, both by Parse and, for a spec
// that skipped validation, by Build. Such a flow used to parse, and a
// stop before the start was ignored: the source ran to the end of the run.
func TestFlowScheduleValidation(t *testing.T) {
	bad := map[string]scenario.Flow{
		"stop before start": {ID: 1, StartSec: 40, StopSec: 20},
		"stop at start":     {ID: 1, StartSec: 40, StopSec: 40},
		"negative start":    {ID: 1, StartSec: -1},
		"negative stop":     {ID: 1, StopSec: -1},
		"negative bytes":    {ID: 1, Bytes: -1},
	}
	for name, f := range bad {
		spec := scenario.Spec{Topology: scenario.Topology{Kind: "chain", Hops: 2}, DurationSec: 60, Flows: []scenario.Flow{f}}
		src, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Parse(src); err == nil || !strings.Contains(err.Error(), "flow 1") {
			t.Errorf("%s: Parse error %v, want one naming flow 1", name, err)
		}
		if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "flow 1") {
			t.Errorf("%s: Build error %v, want one naming flow 1", name, err)
		}
	}
	for _, f := range []scenario.Flow{{ID: 1, StartSec: 40}, {ID: 1, StartSec: 20, StopSec: 40}} {
		spec := scenario.Spec{Topology: scenario.Topology{Kind: "chain", Hops: 2}, DurationSec: 60, Flows: []scenario.Flow{f}}
		if _, err := spec.Build(); err != nil {
			t.Errorf("start %g stop %g rejected: %v", f.StartSec, f.StopSec, err)
		}
	}
}

func TestBuildRejectsUnknownDynamicsNode(t *testing.T) {
	src := `{
	  "topology": {"kind": "chain", "hops": 2},
	  "dynamics": [{"at_sec": 1, "kind": "node-down", "node": 77}]
	}`
	spec, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Errorf("Build error = %v, want unknown-node", err)
	}
}

// TestBuildRejectsTxRangePastCSRange builds every topology kind with a
// decode range beyond the carrier-sense range. The PHY's neighbor lists
// end at CSRange, so such a run would route over links that never
// deliver; set-up must fail instead, naming both ranges.
func TestBuildRejectsTxRangePastCSRange(t *testing.T) {
	for _, kind := range scenario.Topologies.Names() {
		spec := &scenario.Spec{Topology: scenario.Topology{Kind: kind}, DurationSec: 1}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cfg.PHY.TxRange = 700 // CSRange stays 550
		_, err = spec.BuildWith(cfg)
		if err == nil || !strings.Contains(err.Error(), "TxRange 700") || !strings.Contains(err.Error(), "CSRange 550") {
			t.Errorf("%s: BuildWith error = %v, want one naming TxRange 700 and CSRange 550", kind, err)
		}
	}
}

const mobileSpec = `{
  "name": "grid-waypoint-downlink",
  "topology": {"kind": "grid", "width": 3, "height": 3},
  "mode": "ezflow",
  "seed": 5,
  "duration_sec": 20,
  "mobility": {"model": "waypoint", "speed_mps": 12, "pause_sec": 1, "tick_sec": 0.25},
  "workload": {"kind": "downlink", "clients": 4, "rate_bps": 1e5, "on_mean_sec": 3, "off_mean_sec": 3}
}`

// TestParseAndBuildMobileWorkload drives the new blocks end to end: the
// spec parses, the engine attaches with the file's parameters, the
// population is expanded, and the run moves nodes.
func TestParseAndBuildMobileWorkload(t *testing.T) {
	spec, err := scenario.Parse([]byte(mobileSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mobility.SpeedMps != 12 || spec.Workload.Clients != 4 {
		t.Fatalf("parsed blocks wrong: %+v %+v", spec.Mobility, spec.Workload)
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mob == nil {
		t.Fatal("mobility engine not attached")
	}
	if len(sc.Sources) != 6 { // grid's flows 1-2 + 4 clients
		t.Fatalf("sources = %d, want 6", len(sc.Sources))
	}
	res := sc.Run()
	if res.MobilityStats == nil || res.MobilityStats.Moves == 0 {
		t.Fatalf("no movement: %+v", res.MobilityStats)
	}
}

// TestTraceFileRoundTrip writes a trace file, references it from a spec,
// and checks the trace-driven model reproduces it through the full
// scenario stack.
func TestTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "walk.json")
	trace := `{"nodes": [{"id": 2, "waypoints": [
	  {"at_sec": 0, "x": 200, "y": 0},
	  {"at_sec": 10, "x": 200, "y": 180}
	]}]}`
	if err := os.WriteFile(tracePath, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `{
	  "topology": {"kind": "grid", "width": 3, "height": 3},
	  "duration_sec": 12,
	  "mobility": {"model": "trace", "trace_file": ` + strconv.Quote(tracePath) + `}
	}`
	spec, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc.Run()
	got := sc.Mesh.Ch.Position(2)
	if got.X != 200 || got.Y != 180 {
		t.Fatalf("traced node ended at %v, want (200, 180)", got)
	}
	// A missing trace file is a Build error, not a panic.
	bad := `{"topology": {"kind": "grid"},
	  "mobility": {"model": "trace", "trace_file": "/nonexistent/trace.json"}}`
	spec, err = scenario.Parse([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(); err == nil {
		t.Fatal("missing trace file must fail Build")
	}
}

// TestParseErrorsMobility pins strict rejection of malformed mobility
// and workload blocks.
func TestParseErrorsMobility(t *testing.T) {
	cases := map[string]string{
		"unknown mobility field": `{"topology": {"kind": "grid"}, "mobility": {"model": "waypoint", "teleport": true}}`,
		"unknown workload field": `{"topology": {"kind": "grid"}, "workload": {"clients": 3, "priority": 7}}`,
		"unknown mobility model": `{"topology": {"kind": "grid"}, "mobility": {"model": "brownian"}}`,
		"negative speed":         `{"topology": {"kind": "grid"}, "mobility": {"model": "waypoint", "speed_mps": -3}}`,
		"min above max":          `{"topology": {"kind": "grid"}, "mobility": {"model": "waypoint", "speed_mps": 1, "speed_min_mps": 2}}`,
		"trace without file":     `{"topology": {"kind": "grid"}, "mobility": {"model": "trace"}}`,
		"file without trace":     `{"topology": {"kind": "grid"}, "mobility": {"model": "waypoint", "trace_file": "x.json"}}`,
		"off with params":        `{"topology": {"kind": "grid"}, "mobility": {"model": "off", "speed_mps": 3}}`,
		"off with min speed":     `{"topology": {"kind": "grid"}, "mobility": {"model": "off", "speed_min_mps": 1}}`,
		"off with pause":         `{"topology": {"kind": "grid"}, "mobility": {"model": "static", "pause_sec": 2}}`,
		"off with tick":          `{"topology": {"kind": "grid"}, "mobility": {"model": "off", "tick_sec": 0.5}}`,
		"off with fixed":         `{"topology": {"kind": "grid"}, "mobility": {"model": "off", "fixed": [1]}}`,
		"off with empty fixed":   `{"topology": {"kind": "grid"}, "mobility": {"model": "", "fixed": []}}`,
		"off with seed":          `{"topology": {"kind": "grid"}, "mobility": {"model": "off", "seed": 4}}`,
		"off with trace file":    `{"topology": {"kind": "grid"}, "mobility": {"model": "off", "trace_file": "x.json"}}`,
		"negative fixed id":      `{"topology": {"kind": "grid"}, "mobility": {"model": "waypoint", "fixed": [-1]}}`,
		"zero clients":           `{"topology": {"kind": "grid"}, "workload": {"clients": 0}}`,
		"bad workload kind":      `{"topology": {"kind": "grid"}, "workload": {"clients": 3, "kind": "sideways"}}`,
		"half an on/off pair":    `{"topology": {"kind": "grid"}, "workload": {"clients": 3, "on_mean_sec": 2}}`,
		"both activity shapes":   `{"topology": {"kind": "grid"}, "workload": {"clients": 3, "on_mean_sec": 2, "off_mean_sec": 2, "arrival_per_sec": 1, "hold_mean_sec": 1}}`,
		"negative gateway":       `{"topology": {"kind": "grid"}, "workload": {"clients": 3, "gateway": -2}}`,
	}
	for name, src := range cases {
		if _, err := scenario.Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted %s", name, src)
		}
	}
}

// TestSetRate pins how a rate reaches a spec: onto every declared flow,
// or onto the topology's default flow ids when none are declared, with
// the tree keeping its builder-chosen per-leaf flows.
func TestSetRate(t *testing.T) {
	for _, c := range []struct {
		topo scenario.Topology
		ids  []int
	}{
		{scenario.Topology{Kind: "chain"}, []int{1}},
		{scenario.Topology{Kind: "testbed"}, []int{1, 2}},
		{scenario.Topology{Kind: "scenario1"}, []int{1, 2}},
		{scenario.Topology{Kind: "scenario2"}, []int{1, 2, 3}},
		{scenario.Topology{Kind: "tree"}, nil},
		{scenario.Topology{Kind: "grid"}, []int{1, 2}},
		{scenario.Topology{Kind: "grid", Width: 5, Height: 1}, []int{1}},
		{scenario.Topology{Kind: "random"}, []int{1}},
	} {
		s := &scenario.Spec{Topology: c.topo}
		s.SetRate(3e5)
		var ids []int
		for _, f := range s.Flows {
			ids = append(ids, f.ID)
			if f.RateBps != 3e5 {
				t.Errorf("%+v: flow %d rate %g", c.topo, f.ID, f.RateBps)
			}
		}
		if !reflect.DeepEqual(ids, c.ids) {
			t.Errorf("%+v: default flow ids %v, want %v", c.topo, ids, c.ids)
		}
	}
	// Declared flows keep their ids and other fields; the shared slice of
	// the original spec is left alone.
	orig := &scenario.Spec{Topology: scenario.Topology{Kind: "chain"}, Flows: []scenario.Flow{{ID: 4, RateBps: 1e5, StartSec: 2}}}
	cp := *orig
	cp.SetRate(9e5)
	if orig.Flows[0].RateBps != 1e5 || cp.Flows[0] != (scenario.Flow{ID: 4, RateBps: 9e5, StartSec: 2}) {
		t.Errorf("SetRate on a copy: original %+v, copy %+v", orig.Flows, cp.Flows)
	}
}

// TestShape pins the campaign-label fragments of the topology table.
func TestShape(t *testing.T) {
	for topo, want := range map[scenario.Topology]string{
		{Kind: "chain", Hops: 6}:            "hops=6",
		{Kind: "chain"}:                     "hops=4",
		{Kind: "grid", Width: 3, Height: 3}: "side=3",
		{Kind: "grid", Width: 5, Height: 2}: "size=5x2",
		{Kind: "random", Nodes: 16}:         "nodes=16",
		{Kind: "testbed"}:                   "",
		{Kind: "tree"}:                      "",
		{Kind: "torus"}:                     "",
	} {
		if got := topo.Shape(); got != want {
			t.Errorf("%+v.Shape() = %q, want %q", topo, got, want)
		}
	}
}

// TestSetMobilityAndClients pins the override semantics ezsim flags and
// campaign axes share, and that both setters copy rather than mutate the
// blocks of a shared spec.
func TestSetMobilityAndClients(t *testing.T) {
	orig, err := scenario.Parse([]byte(mobileSpec))
	if err != nil {
		t.Fatal(err)
	}
	pristine, _ := scenario.Parse([]byte(mobileSpec))

	s := *orig
	s.SetMobility("off")
	if s.Mobility != nil {
		t.Errorf("off kept the block: %+v", s.Mobility)
	}
	s = *orig
	s.SetMobility("trace")
	if s.Mobility.Model != "trace" || s.Mobility.SpeedMps != 12 || s.Mobility.TickSec != 0.25 {
		t.Errorf("swapped model lost the tuned options: %+v", s.Mobility)
	}
	s = scenario.Spec{Mobility: &scenario.Mobility{Model: "trace", TraceFile: "walk.json"}}
	s.SetMobility("waypoint")
	if s.Mobility.TraceFile != "" {
		t.Errorf("trace file survived a swap to waypoint: %+v", s.Mobility)
	}
	s = scenario.Spec{}
	s.SetMobility("waypoint")
	if !reflect.DeepEqual(s.Mobility, &scenario.Mobility{Model: "waypoint"}) {
		t.Errorf("new block: %+v", s.Mobility)
	}

	s = *orig
	s.SetClients(9)
	if w := s.Workload; w.Clients != 9 || w.OnMeanSec != 3 || w.RateBps != 1e5 {
		t.Errorf("resized workload lost its shape: %+v", w)
	}
	s = scenario.Spec{}
	s.SetClients(2)
	if !reflect.DeepEqual(s.Workload, &ezflow.WorkloadSpec{Clients: 2}) {
		t.Errorf("synthesized workload: %+v", s.Workload)
	}
	if !reflect.DeepEqual(orig, pristine) {
		t.Error("setters mutated the blocks of the spec they copied from")
	}
}
