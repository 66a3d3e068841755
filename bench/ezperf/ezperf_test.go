package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"ezflow/internal/stats"
)

// TestMain lets the test binary stand in for ezperf when the benchmark
// re-executes itself for a pass or a campaign shard worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-pass" || os.Args[1] == "-worker") {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestPhaseSplitMatchesPlainRun runs every workload at smoke-test size
// once with a plain sc.Run() per scenario and once split into timed
// phases, and requires identical output digests and no failed run. On
// the campaign workload the pass itself also checks the engine's cold,
// warm and sharded results against the direct runs.
func TestPhaseSplitMatchesPlainRun(t *testing.T) {
	for _, w := range workloads {
		plain, err := runPass(w, 7, true, passPlain, "")
		if err != nil {
			t.Fatalf("%s plain pass: %v", w.name, err)
		}
		split, err := runPass(w, 7, true, passTimed, "")
		if err != nil {
			t.Fatalf("%s timed pass: %v", w.name, err)
		}
		if plain.Failed != 0 || split.Failed != 0 {
			t.Errorf("%s: failed runs: plain %v, split %v", w.name, plain.Errors, split.Errors)
		}
		if plain.Digest != split.Digest {
			t.Errorf("%s: phase-split digest %s differs from plain sc.Run() digest %s", w.name, split.Digest, plain.Digest)
		}
		if plain.Runs == 0 || plain.Runs != split.Runs {
			t.Errorf("%s: runs plain %d, split %d", w.name, plain.Runs, split.Runs)
		}
	}
}

// benchmarkDef is BENCHMARK.json as the benchmark driver reads it.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkDefinition keeps BENCHMARK.json equal to the workloads
// and metric catalog ezperf implements.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var def benchmarkDef
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or repeated", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("metric %s: unit %q is malformed", n, u)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, ezperf runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, ezperf %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
		check(w.Name, "count")
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, ezperf %d+%d",
			len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range def.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, ezperf has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		check(m.Name, m.Unit)
	}
	for i, m := range def.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, ezperf has %+v", i, m, want)
		}
		check(m.Name, m.Unit)
	}
}

// TestDriverReportsCatalog runs the full driver (child passes included)
// on one small workload in both modes and checks the last output line:
// exactly the catalog's metrics with their units, no failures, and no
// end-to-end value that is zero.
func TestDriverReportsCatalog(t *testing.T) {
	for _, traced := range []bool{false, true} {
		args := []string{"--workload", "campaign", "-small", "--seconds", "0", "-trace-dir", t.TempDir(), "--trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		var out bytes.Buffer
		if code := run(args, &out); code != 0 {
			t.Fatalf("ezperf %v exited %d:\n%s", args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %v: correct %v, failed %d of %d:\n%s", traced, res.Correct, res.Failed, res.Attempted, out.String())
		}
		want := catalog(traced)
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.Metrics[m.name]
			if !ok || v.Unit != m.unit {
				t.Errorf("trace %v: metric %s = %+v, want unit %s", traced, m.name, v, m.unit)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v", m.name, v.Value)
			}
		}
	}
}

// TestProfileAttribution records a CPU profile of work in internal/stats
// and of a calibration unit, and checks that the decoder puts the first
// on the stats layer and leaves the second out.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = float64(i%97 + 1)
	}
	var sink float64
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		sink += stats.JainIndex(xs)
	}
	cal := newCalibrator()
	pprof.Do(context.Background(), pprof.Labels("phase", "calibrate"), func(context.Context) {
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			cal.unit()
		}
	})
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 20 {
		t.Skipf("only %d samples; the host is too busy to judge attribution", samples)
	}
	// Judge among samples that reached a repository frame: under the race
	// detector, its runtime cuts many stacks short, and those count as gc.
	repo := 100 - shares["gc"]
	if shares["stats"] < 0.8*repo || shares["bench"] > 0.15*repo {
		t.Errorf("stats %.1f%%, bench %.1f%%, gc %.1f%% of %d samples (sink %v); want stats >= 80%% of the rest, calibration left out",
			shares["stats"], shares["bench"], shares["gc"], samples, sink)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"ezflow/internal/mac.(*MAC).sendData":                   "mac",
		"ezflow.(*Scenario).Run":                                "root",
		"ezflow.wire.func1":                                     "root",
		"ezflow/internal/ezflow.(*Controller).OnDequeue":        "ctl",
		"ezflow/internal/campaign.runAllCancel[go.shape.int]":   "campaign",
		"ezflow/internal/phy.(*Channel).InTxRange":              "phy",
		"ezflow/internal/scenario.Parse":                        "other",
		"ezflow/bench/ezperf.TestLayerOf":                       "bench",
		"main.(*pass).scenario":                                 "bench",
		"runtime.mallocgc":                                      "",
		"encoding/json.(*encodeState).marshal":                  "",
		"ezflow/internal/trace.(*Recorder).sample":              "stats",
		"ezflow/internal/routing.BFS.Route":                     "routing",
		"ezflow/internal/mobility.(*Engine).tick":               "mobility",
		"ezflow/internal/fabric.(*Store).Get":                   "fabric",
		"ezflow/internal/traffic.(*Source).emit":                "traffic",
		"ezflow/internal/campaign.RunAll[go.shape.struct {}].1": "campaign",
	}
	for fn, want := range cases {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and of [3, 1, 2].
	if q := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", q)
	}
	if q := quartiles([]float64{3, 1, 2}); q != [3]float64{1, 2, 3} {
		t.Errorf("quartiles(1..3) = %v", q)
	}
}

func TestJudge(t *testing.T) {
	rate := endToEnd[0] // higher is better, bound 10%
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += by
		}
		return out
	}
	for by, want := range map[float64]string{15: "improved", 0.5: "unchanged", -5: "unchanged", -15: "worse"} {
		if got := judge(rate, base, shift(by)).verdict; got != want {
			t.Errorf("head shifted by %v: %s, want %s", by, got, want)
		}
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := judge(rate, wide, shift(-15)).verdict; got != "unresolved" {
		t.Errorf("base spread wider than the bound: %s, want unresolved", got)
	}
}
