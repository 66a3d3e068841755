package campaign

import (
	"reflect"
	"strings"
	"testing"

	"ezflow"
	"ezflow/internal/scenario"
)

// mobileAxisScenario is a minimal mobile scenario file for axis tests:
// a waypoint block with tuned (non-default) options and a bursty
// downlink workload, so inheritance through the axes is observable.
const mobileAxisScenario = `{
  "topology": {"kind": "grid", "width": 3, "height": 3},
  "duration_sec": 10,
  "mobility": {"model": "waypoint", "speed_mps": 9, "pause_sec": 3, "tick_sec": 0.25},
  "workload": {"kind": "uplink", "clients": 4, "rate_bps": 5e4, "on_mean_sec": 2, "off_mean_sec": 2}
}`

func parseMobileAxisScenario(t *testing.T) *scenario.Spec {
	t.Helper()
	s, err := scenario.Parse([]byte(mobileAxisScenario))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSweepMobilityAxes(t *testing.T) {
	for _, good := range []string{"mobility=off,waypoint", "speed=2,8", "pause=0.5,2", "clients=4,16"} {
		if _, err := ParseSweep(good); err != nil {
			t.Errorf("ParseSweep(%q): %v", good, err)
		}
	}
	// Axis values are validated at enumeration, not parse: a bad model,
	// a non-positive speed, or a zero client count must fail Enumerate.
	for _, bad := range [][2]string{
		{"mobility", "teleport"},
		{"speed", "0"},
		{"speed", "-3"},
		{"pause", "x"},
		{"clients", "0"},
	} {
		ax := Axis{Name: bad[0], Values: []string{bad[1]}}
		spec := Spec{Axes: []Axis{{Name: "mobility", Values: []string{"waypoint"}}, ax}}
		if _, err := spec.Enumerate(); err == nil {
			t.Errorf("Enumerate with %s=%s did not fail", bad[0], bad[1])
		}
	}
}

// TestMobilityLabelsStable pins the label-compatibility contract: points
// that set no mobility/workload field keep their exact pre-mobility
// labels (and with them DeriveSeed streams and fabric cache keys), while
// points that do set them grow deterministic fragments.
func TestMobilityLabelsStable(t *testing.T) {
	plain := Spec{Axes: []Axis{{Name: "mode", Values: []string{"802.11", "ezflow"}}}}
	pts, err := plain.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for _, frag := range []string{"mobility=", "speed=", "pause=", "clients="} {
			if strings.Contains(p.Label, frag) {
				t.Errorf("axis-free point grew fragment %q: %q", frag, p.Label)
			}
		}
	}
	if pts[0].Label != "topology=chain mode=802.11 hops=4 rate=2e+06" {
		t.Errorf("historical label changed: %q", pts[0].Label)
	}

	swept := Spec{Axes: []Axis{
		{Name: "mobility", Values: []string{"waypoint"}},
		{Name: "speed", Values: []string{"6"}},
		{Name: "pause", Values: []string{"1.5"}},
		{Name: "clients", Values: []string{"12"}},
	}}
	pts, err = swept.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	want := "mobility=waypoint speed=6 pause=1.5 clients=12"
	if !strings.Contains(pts[0].Label, want) {
		t.Errorf("label %q missing %q", pts[0].Label, want)
	}
}

func TestEnumerateSpeedNeedsMobility(t *testing.T) {
	speed := Axis{Name: "speed", Values: []string{"4"}}
	if _, err := (Spec{Axes: []Axis{speed}}).Enumerate(); err == nil {
		t.Error("speed axis without a mobility model did not fail")
	}
	withAxis := Spec{Axes: []Axis{{Name: "mobility", Values: []string{"waypoint"}}, speed}}
	if _, err := withAxis.Enumerate(); err != nil {
		t.Errorf("speed + mobility axis: %v", err)
	}
	withFile := Spec{Scenario: parseMobileAxisScenario(t), Axes: []Axis{speed}}
	if _, err := withFile.Enumerate(); err != nil {
		t.Errorf("speed + mobile scenario file: %v", err)
	}
}

// TestApplyMobilityWorkload exercises the axis-resolution semantics
// of runSpec directly: off suppresses the file block, a swept model
// inherits the file's tuned options, speed/pause patch whichever base is
// active, and a clients override rewrites the file workload (or
// synthesizes one). The shared file spec is never mutated.
func TestApplyMobilityWorkload(t *testing.T) {
	file := parseMobileAxisScenario(t)
	pristine := parseMobileAxisScenario(t)
	defer func() {
		if !reflect.DeepEqual(file, pristine) {
			t.Error("runSpec mutated the campaign's shared scenario file")
		}
	}()

	t.Run("untouched", func(t *testing.T) {
		if s := runSpec(Spec{Scenario: file}, Point{}); !reflect.DeepEqual(s, file) {
			t.Errorf("axis-free point changed the file spec: %+v", s)
		}
	})
	t.Run("off-suppresses-file", func(t *testing.T) {
		if s := runSpec(Spec{Scenario: file}, Point{Mobility: "off"}); s.Mobility != nil {
			t.Errorf("off point got %+v", s.Mobility)
		}
	})
	t.Run("model-inherits-file-opts", func(t *testing.T) {
		m := runSpec(Spec{Scenario: file}, Point{Mobility: "waypoint"}).Mobility
		if m == nil || m.SpeedMps != 9 || m.PauseSec != 3 || m.TickSec != 0.25 {
			t.Errorf("swept model lost the file's tuned opts: %+v", m)
		}
	})
	t.Run("speed-overrides-file", func(t *testing.T) {
		m := runSpec(Spec{Scenario: file}, Point{SpeedMps: 2, PauseSec: 0.5}).Mobility
		if m == nil || m.SpeedMps != 2 || m.PauseSec != 0.5 {
			t.Fatalf("speed/pause override: %+v", m)
		}
		if m.Model != "waypoint" || m.TickSec != 0.25 {
			t.Errorf("override changed the file's model or tick: %+v", m)
		}
	})
	t.Run("clients-rewrites-file-workload", func(t *testing.T) {
		w := runSpec(Spec{Scenario: file}, Point{Clients: 7}).Workload
		if w == nil || w.Clients != 7 {
			t.Fatalf("clients override: %+v", w)
		}
		if w.Kind != ezflow.WorkloadUplink || w.OnMeanSec != 2 {
			t.Errorf("clients override dropped the file's workload shape: %+v", w)
		}
	})
	t.Run("clients-synthesizes-without-file", func(t *testing.T) {
		w := runSpec(Spec{}, Point{Topology: "grid", Hops: 3, RateBps: 2e6, Clients: 5}).Workload
		if w == nil || w.Clients != 5 || w.Kind != "" {
			t.Errorf("synthesized workload: %+v", w)
		}
	})
}
