package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenBuiltinSpec is the built-in topology golden campaign: every
// topology kind crossed with both control planes at a light and a
// saturating source rate, with no scenario file attached. It pins the
// path that turns a campaign point into a mesh plus its default flows,
// which the file-driven goldens never reach.
func goldenBuiltinSpec() Spec {
	return Spec{
		Name: "golden-builtin",
		Axes: []Axis{
			{Name: "topology", Values: []string{"chain", "testbed", "scenario1", "scenario2", "tree", "grid", "random"}},
			{Name: "mode", Values: []string{"802.11", "ezflow"}},
			{Name: "rate", Values: []string{"3e5", "2e6"}},
		},
		Reps:        2,
		BaseSeed:    17,
		DurationSec: 20,
	}
}

// runGoldenSpec executes a campaign at the given worker count and returns
// the JSON and CSV sink outputs.
func runGoldenSpec(t *testing.T, spec Spec, parallel int) (js, cs []byte) {
	t.Helper()
	eng := Engine{Parallel: parallel}
	res, err := eng.Run(spec)
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

// TestGoldenBuiltinCampaigns pins built-in topology campaigns
// byte-for-byte against committed goldens at several worker counts,
// mirroring TestGoldenDynamicsCampaigns: the topology table, its default
// flow ids, the rate axis and the grid side clamp all feed these bytes.
//
// Regenerate (only after an intentional behaviour change) with
//
//	EZFLOW_UPDATE_GOLDEN=1 go test ./internal/campaign -run GoldenBuiltin
func TestGoldenBuiltinCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	jsonPath := filepath.Join("testdata", "golden_builtin.json")
	csvPath := filepath.Join("testdata", "golden_builtin.csv")
	if os.Getenv("EZFLOW_UPDATE_GOLDEN") != "" {
		js, cs := runGoldenSpec(t, goldenBuiltinSpec(), 1)
		if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, cs, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("updated built-in goldens")
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
		js, cs := runGoldenSpec(t, goldenBuiltinSpec(), parallel)
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("%s: JSON diverges from golden %s", name, jsonPath)
		}
		if !bytes.Equal(cs, wantCSV) {
			t.Errorf("%s: CSV diverges from golden %s", name, csvPath)
		}
	}
}
