package campaign

import (
	"bytes"
	"strings"
	"testing"

	"ezflow/internal/scenario"
)

const flapScenarioJSON = `{
  "name": "chain3-flap",
  "topology": {"kind": "chain", "hops": 3},
  "mode": "ezflow",
  "duration_sec": 20,
  "flows": [{"id": 1, "rate_bps": 4e5}],
  "dynamics": [
    {"at_sec": 7, "kind": "link-down", "a": 1, "b": 2, "reroute": true},
    {"at_sec": 11, "kind": "link-up", "a": 1, "b": 2, "reroute": true}
  ]
}`

func flapSpec(t *testing.T) Spec {
	t.Helper()
	s, err := scenario.Parse([]byte(flapScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Name:     "dynamics-determinism",
		Scenario: s,
		Axes: []Axis{
			{Name: "mode", Values: []string{"802.11", "ezflow"}},
			{Name: "churn", Values: []string{"0", "1"}},
		},
		Reps:     2,
		BaseSeed: 5,
	}
}

// TestDynamicsCampaignDeterminism is the acceptance pin of the dynamics
// subsystem: a campaign over a scenario JSON with a fault timeline (plus
// a layered churn axis) emits byte-identical JSON and CSV for any worker
// count.
func TestDynamicsCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var outputs [][]byte
	for _, parallel := range []int{1, 8} {
		eng := Engine{Parallel: parallel}
		res, err := eng.Run(flapSpec(t))
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
	if !bytes.Contains(outputs[0], []byte(`"recovery_sec"`)) {
		t.Error("JSON carries no recovery metrics")
	}
}

func TestScenarioCampaignShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	res, err := (&Engine{Parallel: 4}).Run(flapSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 || len(res.Runs) != 8 {
		t.Fatalf("points/runs = %d/%d, want 4/8", len(res.Points), len(res.Runs))
	}
	for _, a := range res.Points {
		if !strings.HasPrefix(a.Label, "scenario=chain3-flap mode=") {
			t.Errorf("label %q does not name the scenario file", a.Label)
		}
		// Every point carries the file's fault, so recovery statistics
		// must be populated (even where churn=0).
		if a.TailQueuePkts.N == 0 {
			t.Errorf("%s: no tail-queue statistics", a.Label)
		}
	}
	for _, r := range res.Runs {
		if r.RecoverySec == -1 {
			t.Errorf("%s rep %d: no fault recorded despite the scenario timeline", r.Label, r.Rep)
		}
	}
}

func TestScenarioEventsBeyondCampaignDuration(t *testing.T) {
	// A file without duration_sec runs at the campaign duration; events
	// scheduled past it would silently never fire, so Enumerate rejects
	// the combination.
	s, err := scenario.Parse([]byte(`{
	  "topology": {"kind": "chain", "hops": 3},
	  "dynamics": [{"at_sec": 200, "kind": "link-down", "a": 1, "b": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Scenario: s, DurationSec: 120}
	if _, err := spec.Enumerate(); err == nil {
		t.Error("event at 200s accepted into a 120s campaign")
	}
	spec.DurationSec = 300
	if _, err := spec.Enumerate(); err != nil {
		t.Errorf("event at 200s rejected from a 300s campaign: %v", err)
	}
}

func TestScenarioFlowsBeyondCampaignDuration(t *testing.T) {
	// Likewise a flow that starts at or after the campaign duration would
	// run silently at 0 kb/s; the trial build at that duration rejects it.
	s, err := scenario.Parse([]byte(`{
	  "topology": {"kind": "chain", "hops": 3},
	  "flows": [{"id": 1, "start_sec": 200}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Scenario: s, DurationSec: 120}
	if _, err := spec.Enumerate(); err == nil || !strings.Contains(err.Error(), "flow 1 starts at") {
		t.Errorf("flow starting at 200s in a 120s campaign: error %v", err)
	}
	spec.DurationSec = 300
	if _, err := spec.Enumerate(); err != nil {
		t.Errorf("flow starting at 200s rejected from a 300s campaign: %v", err)
	}
}

func TestScenarioRejectsTopologyAxes(t *testing.T) {
	s, err := scenario.Parse([]byte(flapScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, axis := range []string{"topology", "hops", "nodes"} {
		spec := Spec{Scenario: s, Axes: []Axis{{Name: axis, Values: []string{"2"}}}}
		if _, err := spec.Enumerate(); err == nil {
			t.Errorf("axis %q accepted alongside a scenario file", axis)
		}
	}
}

func TestFaultAxesEnumerate(t *testing.T) {
	spec := Spec{Axes: []Axis{
		{Name: "flap", Values: []string{"0", "1"}},
		{Name: "churn", Values: []string{"0", "1"}},
	}}
	pts, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	if !pts[3].Flap || !pts[3].Churn {
		t.Errorf("last point should flap+churn: %+v", pts[3])
	}
	if pts[0].Label == pts[1].Label || pts[1].Label == pts[2].Label {
		t.Error("fault axes not reflected in labels")
	}
	bad := Spec{Axes: []Axis{{Name: "flap", Values: []string{"2"}}}}
	if _, err := bad.Enumerate(); err == nil {
		t.Error("flap=2 accepted")
	}
}
