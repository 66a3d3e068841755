package campaign

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ezflow"
	"ezflow/internal/scenario"
)

func TestRunAllOrderAndParallel(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 16} {
		var inFlight, peak atomic.Int32
		jobs := make([]func() int, 20)
		for i := range jobs {
			i := i
			jobs[i] = func() int {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				defer inFlight.Add(-1)
				return i * i
			}
		}
		out := RunAll(parallel, jobs)
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
		if parallel <= 1 && peak.Load() > 1 {
			t.Errorf("parallel=%d ran %d jobs concurrently", parallel, peak.Load())
		}
	}
}

func TestParseSweep(t *testing.T) {
	ax, err := ParseSweep("hops=2..5")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "hops" || len(ax.Values) != 4 || ax.Values[0] != "2" || ax.Values[3] != "5" {
		t.Errorf("range expansion: %+v", ax)
	}
	ax, err = ParseSweep("mode=802.11,ezflow, penalty")
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.Values) != 3 || ax.Values[2] != "penalty" {
		t.Errorf("list parse: %+v", ax)
	}
	for _, bad := range []string{"hops", "bogus=1", "hops=8..2", "mode="} {
		if _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) did not fail", bad)
		}
	}
}

// TestAxisTable pins that ParseSweep, its error message, the -sweep
// usage text and Point.set all read the same axis list, that every
// listed axis parses a valid value, and that each row which must render a
// label fragment or apply to a spec does so with it.
func TestAxisTable(t *testing.T) {
	valid := map[string]string{
		"topology": "grid", "mode": "ezflow", "controller": "feedback", "routing": "etx",
		"hops": "3", "rate": "1e5", "cap": "64", "nodes": "9", "flap": "1", "churn": "1",
		"mobility": "waypoint", "speed": "2", "pause": "1", "clients": "4",
	}
	labelled := map[string]bool{"routing": true, "mobility": true, "speed": true, "pause": true,
		"clients": true, "cap": true, "flap": true, "churn": true}
	applied := map[string]bool{"mode": true, "controller": true, "rate": true, "routing": true,
		"mobility": true, "speed": true, "pause": true, "clients": true, "cap": true}
	for _, ax := range axisTable {
		var p Point
		if err := ax.set(&p, valid[ax.name]); err != nil {
			t.Errorf("%s: %v", ax.name, err)
			continue
		}
		if labelled[ax.name] != (ax.label != nil) || (ax.label != nil && ax.label(p) == "") {
			t.Errorf("%s: label fragment present %v, want %v, or empty for %s", ax.name, ax.label != nil, labelled[ax.name], valid[ax.name])
		}
		if applied[ax.name] != (ax.apply != nil) {
			t.Errorf("%s: apply present %v, want %v", ax.name, ax.apply != nil, applied[ax.name])
			continue
		}
		if ax.apply != nil {
			s := scenario.Spec{Topology: scenario.Topology{Kind: "chain"}, Mobility: &scenario.Mobility{Model: "trace"}}
			before := s
			if err := ax.apply(p, &s); err != nil || reflect.DeepEqual(s, before) {
				t.Errorf("%s: apply of %s = %v, left the spec as it was", ax.name, valid[ax.name], err)
			}
		}
	}
	_, err := ParseSweep("bogus=1")
	if err == nil {
		t.Fatal("unknown axis parsed")
	}
	usage := SweepUsage()
	for _, name := range AxisNames() {
		v, ok := valid[name]
		if !ok {
			t.Errorf("axis %q has no test value", name)
			continue
		}
		if _, err := ParseSweep(name + "=" + v); err != nil {
			t.Errorf("ParseSweep(%s=%s): %v", name, v, err)
		}
		var p Point
		if err := p.set(name, v); err != nil || reflect.DeepEqual(p, Point{}) {
			t.Errorf("set(%s, %s) = %v, point %+v", name, v, err, p)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(usage, name+" (") {
			t.Errorf("axis %q missing from the ParseSweep error or the usage text", name)
		}
	}
	if len(valid) != len(AxisNames()) {
		t.Errorf("axis list %v, test values for %d axes", AxisNames(), len(valid))
	}
}

// TestSpecFlagsMatchRunSpec pins ezsim's run-shaping flags to the
// campaign: for every row with an apply, the flag -<row> v over a
// scenario file resolves to the very spec that a one-point campaign over
// that file sweeping <row>=v runs.
func TestSpecFlagsMatchRunSpec(t *testing.T) {
	const file = `{
	  "topology": {"kind": "grid", "width": 3, "height": 3},
	  "mode": "ezflow", "routing": "bfs", "cw_cap": 256, "duration_sec": 10,
	  "flows": [{"id": 1, "rate_bps": 4e5}],
	  "mobility": {"model": "waypoint", "speed_mps": 9, "pause_sec": 3},
	  "workload": {"clients": 3, "on_mean_sec": 2, "off_mean_sec": 2}
	}`
	values := map[string]string{"mode": "diffq", "controller": "backpressure", "rate": "1e5",
		"routing": "etx", "mobility": "off", "speed": "4", "pause": "1", "clients": "6", "cap": "64"}
	parse := func() *scenario.Spec {
		s, err := scenario.Parse([]byte(file))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, ax := range axisTable {
		if ax.apply == nil {
			continue
		}
		v, ok := values[ax.name]
		if !ok {
			t.Errorf("%s: no test value", ax.name)
			continue
		}
		spec := Spec{Scenario: parse(), Axes: []Axis{{Name: ax.name, Values: []string{v}}}}
		pts, err := spec.Enumerate()
		if err != nil {
			t.Fatalf("%s=%s: %v", ax.name, v, err)
		}
		want := runSpec(spec, pts[0])

		fs := flag.NewFlagSet("ezsim", flag.ContinueOnError)
		apply := SpecFlags(fs, nil)
		if err := fs.Parse([]string{"-" + ax.name, v}); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		got := parse()
		if err := apply(got, set); err != nil {
			t.Fatalf("-%s %s: %v", ax.name, v, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-%s %s: spec\n%+v\ncampaign point runs\n%+v", ax.name, v, got, want)
		}
	}
}

func TestEnumerateGrid(t *testing.T) {
	spec := Spec{Axes: []Axis{
		{Name: "mode", Values: []string{"802.11", "ezflow"}},
		{Name: "hops", Values: []string{"3", "4", "5"}},
	}}
	pts, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("grid size %d, want 6", len(pts))
	}
	// Axis-major order: mode varies slowest.
	if pts[0].Mode != ezflow.Mode80211 || pts[0].Hops != 3 ||
		pts[3].Mode != ezflow.ModeEZFlow || pts[5].Hops != 5 {
		t.Errorf("enumeration order wrong: %+v", pts)
	}
	for i, p := range pts {
		if p.Index != i || p.Label == "" {
			t.Errorf("point %d missing index/label: %+v", i, p)
		}
	}
	if _, err := (Spec{Axes: []Axis{{Name: "mode", Values: []string{"nope"}}}}).Enumerate(); err == nil {
		t.Error("bad mode value did not fail")
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	seen := map[int64]string{}
	for _, base := range []int64{1, 2} {
		for _, label := range []string{"a", "b"} {
			for rep := 0; rep < 50; rep++ {
				s := DeriveSeed(base, label, rep)
				key := fmt.Sprintf("%d/%s/%d", base, label, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s -> %d", prev, key, s)
				}
				seen[s] = key
				if s != DeriveSeed(base, label, rep) {
					t.Fatal("DeriveSeed not deterministic")
				}
			}
		}
	}
}

func testSpec() Spec {
	// The topology axis includes a multi-flow topology (testbed) so the
	// test covers float-accumulation ordering across flows, not just the
	// single-flow chain path.
	return Spec{
		Name: "determinism",
		Axes: []Axis{
			{Name: "topology", Values: []string{"chain", "testbed"}},
			{Name: "mode", Values: []string{"802.11", "ezflow"}},
		},
		Reps:        2,
		BaseSeed:    7,
		DurationSec: 12,
	}
}

// TestCampaignDeterminism is the acceptance test of the subsystem: the
// same spec must produce byte-identical JSON (and CSV) whether the runs
// execute on one worker or many, in whatever completion order.
func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var outputs [][]byte
	for _, parallel := range []int{1, 8} {
		eng := Engine{Parallel: parallel}
		res, err := eng.Run(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		var js, cs bytes.Buffer
		if err := (JSONSink{W: &js}).Emit(res); err != nil {
			t.Fatal(err)
		}
		if err := (CSVSink{W: &cs}).Emit(res); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, js.Bytes(), cs.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[2]) {
		t.Error("JSON differs between 1 and 8 workers")
	}
	if !bytes.Equal(outputs[1], outputs[3]) {
		t.Error("CSV differs between 1 and 8 workers")
	}
	if len(outputs[0]) == 0 || len(outputs[1]) == 0 {
		t.Error("empty sink output")
	}
}

func TestCampaignAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := Spec{
		Name:        "agg",
		Axes:        []Axis{{Name: "mode", Values: []string{"802.11"}}},
		Reps:        3,
		BaseSeed:    1,
		DurationSec: 12,
	}
	var progressed atomic.Int32
	eng := Engine{Parallel: 4, Progress: func(done, total int) {
		progressed.Add(1)
		if total != 3 || done < 1 || done > total {
			t.Errorf("bad progress %d/%d", done, total)
		}
	}}
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if progressed.Load() != 3 {
		t.Errorf("progress called %d times, want 3", progressed.Load())
	}
	if len(res.Points) != 1 || len(res.Runs) != 3 {
		t.Fatalf("points/runs = %d/%d, want 1/3", len(res.Points), len(res.Runs))
	}
	agg := res.Points[0]
	if agg.AggKbps.N != 3 || agg.AggKbps.Mean <= 0 {
		t.Errorf("aggregate throughput summary wrong: %+v", agg.AggKbps)
	}
	if agg.AggKbps.Std > 0 && agg.AggKbps.CI95 <= 0 {
		t.Errorf("CI95 missing: %+v", agg.AggKbps)
	}
	if agg.BinKbps.N == 0 {
		t.Error("pooled bin statistics empty")
	}
	// Replications must actually differ (distinct derived seeds).
	if res.Runs[0].Seed == res.Runs[1].Seed {
		t.Error("replications share a seed")
	}
	var report bytes.Buffer
	if err := (ReportSink{W: &report}).Emit(res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report.Bytes(), []byte("1 points x 3 reps")) {
		t.Errorf("report header wrong:\n%s", report.String())
	}
}
