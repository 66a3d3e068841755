package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ezflow"
	"ezflow/internal/obs"
)

// TestGoldenObsInvariance is the acceptance test of the observability
// layer's second invariant: enabling observability never perturbs a run.
// It re-executes the golden dynamics campaigns with Spec.Obs set — full
// metric catalog plus a live flight recorder in every worker — and
// requires the JSON and CSV output to stay byte-identical to the
// committed obs-off goldens, at several worker counts. A single extra
// RNG draw, reordered event, or serialized spec difference fails it.
func TestGoldenObsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, topo := range goldenTopologies {
		wantJSON, err := os.ReadFile(filepath.Join("testdata", "golden_"+topo+".json"))
		if err != nil {
			t.Fatal(err)
		}
		wantCSV, err := os.ReadFile(filepath.Join("testdata", "golden_"+topo+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 4, 7} {
			name := fmt.Sprintf("%s/obs/parallel=%d", topo, parallel)
			spec := goldenSpec(t, topo)
			spec.Obs = true
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
			if !bytes.Equal(jb.Bytes(), wantJSON) {
				t.Errorf("%s: JSON diverges from obs-off golden", name)
			}
			if !bytes.Equal(cb.Bytes(), wantCSV) {
				t.Errorf("%s: CSV diverges from obs-off golden", name)
			}
		}
	}
}

// obsChainRun executes one observed chain scenario and returns its final
// metrics snapshot, serialized. Used to compare snapshots across worker
// counts.
func obsChainRun(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := ezflow.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 20 * ezflow.Second
	sc := ezflow.NewChain(3, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 200e3})
	sc.EnableObs(obs.Config{Metrics: true, FlightRecorder: 1024})
	res := sc.Run()
	if res.Obs == nil {
		t.Fatal("observed run returned nil snapshot")
	}
	var fired float64
	for _, m := range res.Obs.Metrics {
		if m.Name == "sim.events_fired" {
			fired = m.Value
		}
	}
	if fired <= 0 {
		t.Fatalf("snapshot missing live sim.events_fired (got %v)", fired)
	}
	b, err := json.Marshal(res.Obs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestObsSnapshotDeterminism pins snapshot ordering and content under
// concurrent campaign workers: the same seeded scenarios, run serially
// and run on a 4-worker pool, must produce byte-identical serialized
// snapshots. Snapshot emission sorts by metric name, so registration
// order and goroutine interleaving must not leak into the output.
func TestObsSnapshotDeterminism(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	jobs := make([]func() []byte, len(seeds))
	for i, s := range seeds {
		s := s
		jobs[i] = func() []byte { return obsChainRun(t, s) }
	}
	serial := RunAll(1, jobs)
	pooled := RunAll(4, jobs)
	for i := range seeds {
		if !bytes.Equal(serial[i], pooled[i]) {
			t.Errorf("seed %d: snapshot differs between serial and 4-worker runs", seeds[i])
		}
	}
	// And the same seed twice on the pool: identical.
	again := RunAll(4, jobs)
	for i := range seeds {
		if !bytes.Equal(pooled[i], again[i]) {
			t.Errorf("seed %d: snapshot not reproducible across pooled runs", seeds[i])
		}
	}
}
