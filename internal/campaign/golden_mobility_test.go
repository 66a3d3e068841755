package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ezflow/internal/scenario"
)

// goldenMobilitySpec is the mobility golden campaign: a 3x3 grid
// serving a bursty 3-client downlink population, with the mobility axis
// crossing a pinned-static topology against the file's 8 m/s waypoint
// commuters, under both control planes. The off column pins that a
// mobile-capable campaign run with mobility off stays byte-identical
// over time; the waypoint column pins every move, incremental re-index,
// and strategy-driven repair of a mobile run.
func goldenMobilitySpec(t *testing.T) Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_mobility_scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Name:     "golden-mobility",
		Scenario: s,
		Axes: []Axis{
			{Name: "mobility", Values: []string{"off", "waypoint"}},
			{Name: "mode", Values: []string{"802.11", "ezflow"}},
		},
		Reps:     2,
		BaseSeed: 17,
	}
}

// runGoldenMobility executes the mobility golden campaign at the given
// worker count and returns the JSON and CSV sink outputs.
func runGoldenMobility(t *testing.T, parallel int) (js, cs []byte) {
	t.Helper()
	eng := Engine{Parallel: parallel}
	res, err := eng.Run(goldenMobilitySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb bytes.Buffer
	if err := (JSONSink{W: &jb}).Emit(res); err != nil {
		t.Fatal(err)
	}
	if err := (CSVSink{W: &cb}).Emit(res); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestGoldenMobilityCampaigns pins the mobility subsystem byte-for-byte
// against committed goldens at several worker counts AND shard counts —
// the acceptance test of the mobility tentpole. A single extra RNG
// draw, a reordered position tick, or one link patched differently by
// the incremental re-indexer changes delivered counts and fails this
// test at every concurrency level.
//
// Regenerate (only after an intentional behaviour change) with
//
//	EZFLOW_UPDATE_GOLDEN=1 go test ./internal/campaign -run GoldenMobility
func TestGoldenMobilityCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	update := os.Getenv("EZFLOW_UPDATE_GOLDEN") != ""
	jsonPath := filepath.Join("testdata", "golden_mobility.json")
	csvPath := filepath.Join("testdata", "golden_mobility.csv")
	if update {
		js, cs := runGoldenMobility(t, 1)
		if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, cs, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("updated mobility goldens")
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4, 7} {
		name := fmt.Sprintf("parallel=%d", parallel)
		js, cs := runGoldenMobility(t, parallel)
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("%s: JSON diverges from golden %s", name, jsonPath)
		}
		if !bytes.Equal(cs, wantCSV) {
			t.Errorf("%s: CSV diverges from golden %s", name, csvPath)
		}
	}

	// Sharded execution: the same campaign dealt to 1, 2, and 4 worker
	// subprocesses must merge to the same bytes.
	cmd, env := workerCommand(t)
	spec := goldenMobilitySpec(t)
	for _, shards := range []int{1, 2, 4} {
		name := fmt.Sprintf("shards=%d", shards)
		res, _, err := RunSharded(spec, ShardOptions{
			Shards:   shards,
			Command:  cmd,
			Env:      env,
			Parallel: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var jb, cb bytes.Buffer
		if err := (JSONSink{W: &jb}).Emit(res); err != nil {
			t.Fatal(err)
		}
		if err := (CSVSink{W: &cb}).Emit(res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jb.Bytes(), wantJSON) {
			t.Errorf("%s: JSON diverges from golden %s", name, jsonPath)
		}
		if !bytes.Equal(cb.Bytes(), wantCSV) {
			t.Errorf("%s: CSV diverges from golden %s", name, csvPath)
		}
	}
}

// goldenMobilityFaultsSpec crosses the mobility golden scenario's
// waypoint commuters with the flap and churn fault axes under four
// control planes, so mobility ticks repair routes through an attached
// dynamics engine while controllers whose Extend does real work
// (feedback refreshes predecessors, backpressure stamps new nodes)
// re-extend after every round.
func goldenMobilityFaultsSpec(t *testing.T) Spec {
	t.Helper()
	spec := goldenMobilitySpec(t)
	spec.Name = "golden-mobility-faults"
	spec.Axes = []Axis{
		{Name: "controller", Values: []string{"802.11", "ezflow", "backpressure", "feedback"}},
		{Name: "flap", Values: []string{"0", "1"}},
		{Name: "churn", Values: []string{"0", "1"}},
	}
	return spec
}

// TestGoldenMobilityFaults pins mobility repair interleaved with
// scripted faults byte-for-byte, at two worker counts.
//
// Regenerate (only after an intentional behaviour change) with
//
//	EZFLOW_UPDATE_GOLDEN=1 go test ./internal/campaign -run GoldenMobilityFaults
func TestGoldenMobilityFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	jsonPath := filepath.Join("testdata", "golden_mobility_faults.json")
	csvPath := filepath.Join("testdata", "golden_mobility_faults.csv")
	run := func(parallel int) (js, cs []byte) {
		res, err := (&Engine{Parallel: parallel}).Run(goldenMobilityFaultsSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		var jb, cb bytes.Buffer
		if err := (JSONSink{W: &jb}).Emit(res); err != nil {
			t.Fatal(err)
		}
		if err := (CSVSink{W: &cb}).Emit(res); err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes()
	}
	if os.Getenv("EZFLOW_UPDATE_GOLDEN") != "" {
		js, cs := run(1)
		if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, cs, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("updated mobility-faults goldens")
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		js, cs := run(parallel)
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("parallel=%d: JSON diverges from golden %s", parallel, jsonPath)
		}
		if !bytes.Equal(cs, wantCSV) {
			t.Errorf("parallel=%d: CSV diverges from golden %s", parallel, csvPath)
		}
	}
}
