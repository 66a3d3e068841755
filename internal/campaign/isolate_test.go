package campaign

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ezflow/internal/fabric"
)

// isolateSpec is a 1-point, 2-rep grid for the isolation tests — small
// enough that a stubbed runReplication dominates the runtime.
func isolateSpec() Spec {
	return Spec{
		Name:        "isolate-test",
		Axes:        []Axis{{Name: "hops", Values: []string{"2"}}},
		Reps:        2,
		BaseSeed:    5,
		DurationSec: 5,
	}
}

// stubRuns swaps the simulation entry point for the test's double and
// restores it on cleanup. Tests using it must not run in parallel.
func stubRuns(t *testing.T, fn func(Spec, Point, int, float64, *atomic.Bool) RunResult) {
	t.Helper()
	orig := runReplication
	runReplication = fn
	t.Cleanup(func() { runReplication = orig })
}

// TestRunPanicRecovered pins panic containment: a replication that
// panics becomes a structured failed run; its sibling still completes
// and still aggregates.
func TestRunPanicRecovered(t *testing.T) {
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, _ *atomic.Bool) RunResult {
		if rep == 0 {
			panic("injected: simulator blew up")
		}
		return RunResult{Point: p.Index, Label: p.Label, Rep: rep,
			Seed: DeriveSeed(spec.BaseSeed, p.Label, rep), AggKbps: 100, RecoverySec: -1}
	})
	var shared FaultCounters
	eng := Engine{Parallel: 1, Faults: &shared}
	res, err := eng.Run(isolateSpec())
	if err != nil {
		t.Fatal(err)
	}
	bad, good := res.Runs[0], res.Runs[1]
	if !bad.Failed || !strings.Contains(bad.Error, "panic: injected") {
		t.Errorf("rep 0 = %+v, want a recovered-panic failure", bad)
	}
	if bad.Seed != DeriveSeed(5, bad.Label, 0) {
		t.Errorf("failed run seed = %d, want the derived seed", bad.Seed)
	}
	if good.Failed || good.AggKbps != 100 {
		t.Errorf("rep 1 = %+v, want the healthy run", good)
	}
	agg := res.Points[0]
	if agg.FailedRuns != 1 || agg.AggKbps.N != 1 || agg.AggKbps.Mean != 100 {
		t.Errorf("aggregate = %+v, want 1 failed run excluded from stats", agg)
	}
	for _, fs := range []FaultStats{eng.FaultStats(), shared.Snapshot()} {
		if fs.RunsPanicked != 1 || fs.RunsFailed != 1 {
			t.Errorf("fault stats = %+v, want 1 panic / 1 failed", fs)
		}
	}
}

// TestRunTimeout pins the wall-clock cap: a hanging replication is
// abandoned at RunTimeout and recorded as a timeout failure instead of
// wedging the campaign.
func TestRunTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, _ *atomic.Bool) RunResult {
		if rep == 0 {
			<-release // hang until the test tears down
		}
		return RunResult{Point: p.Index, Label: p.Label, Rep: rep,
			Seed: DeriveSeed(spec.BaseSeed, p.Label, rep), AggKbps: 100, RecoverySec: -1}
	})
	eng := Engine{Parallel: 1, RunTimeout: 50 * time.Millisecond}
	res, err := eng.Run(isolateSpec())
	if err != nil {
		t.Fatal(err)
	}
	bad := res.Runs[0]
	if !bad.Failed || !strings.Contains(bad.Error, "wall-clock timeout") {
		t.Errorf("rep 0 = %+v, want a timeout failure", bad)
	}
	if res.Runs[1].Failed {
		t.Errorf("rep 1 failed: %+v", res.Runs[1])
	}
	if fs := eng.FaultStats(); fs.RunsTimeout != 1 || fs.RunsFailed != 1 {
		t.Errorf("fault stats = %+v, want 1 timeout / 1 failed", fs)
	}
}

// TestTimedOutRunCountsOnce pins that only the outcome the isolator
// keeps is counted: a replication that times out and then panics in its
// abandoned goroutine adds no panic and no second failure, to either the
// engine's counters or the shared ones.
func TestTimedOutRunCountsOnce(t *testing.T) {
	finished := make(chan struct{})
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, _ *atomic.Bool) RunResult {
		if rep == 0 {
			defer close(finished)
			time.Sleep(150 * time.Millisecond)
			panic("injected: late panic")
		}
		return RunResult{Point: p.Index, Label: p.Label, Rep: rep,
			Seed: DeriveSeed(spec.BaseSeed, p.Label, rep), AggKbps: 100, RecoverySec: -1}
	})
	var shared FaultCounters
	eng := Engine{Parallel: 1, RunTimeout: 30 * time.Millisecond, Faults: &shared}
	if _, err := eng.Run(isolateSpec()); err != nil {
		t.Fatal(err)
	}
	<-finished
	// A late count would land just after the stub's deferred close; with
	// the fix there is no event to wait on, so give it a bounded window.
	time.Sleep(100 * time.Millisecond)
	for _, fs := range []FaultStats{eng.FaultStats(), shared.Snapshot()} {
		if fs.RunsTimeout != 1 || fs.RunsFailed != 1 || fs.RunsPanicked != 0 {
			t.Errorf("fault stats = %+v, want 1 timeout / 1 failed / 0 panicked", fs)
		}
	}
}

// TestTimedOutRunStops pins that a timeout stops the simulation, not
// just the wait for it: a real replication with a horizon far beyond
// the deadline returns within 2 s of its 100 ms timeout.
func TestTimedOutRunStops(t *testing.T) {
	returned := make(chan struct{})
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, stop *atomic.Bool) RunResult {
		defer close(returned)
		return runOne(spec, p, rep, durSec, stop)
	})
	spec := isolateSpec()
	spec.Reps, spec.DurationSec = 1, 1e6
	eng := Engine{Parallel: 1, RunTimeout: 100 * time.Millisecond}
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Runs[0]; !r.Failed || !strings.Contains(r.Error, "wall-clock timeout") {
		t.Fatalf("run = %+v, want a timeout failure", r)
	}
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("the timed-out replication was still simulating 2 s after its deadline")
	}
}

// TestFailedRunsNeverCached pins the cache-poisoning guard: a failed
// replication must not enter the fabric store, so a fixed binary (or a
// roomier timeout) re-executes it instead of replaying the failure
// forever.
func TestFailedRunsNeverCached(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	store, err := fabric.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, _ *atomic.Bool) RunResult {
		if rep == 0 {
			panic("injected: transient")
		}
		return RunResult{Point: p.Index, Label: p.Label, Rep: rep,
			Seed: DeriveSeed(spec.BaseSeed, p.Label, rep), AggKbps: 100, RecoverySec: -1}
	})
	eng := Engine{Parallel: 1, Cache: store}
	if _, err := eng.Run(isolateSpec()); err != nil {
		t.Fatal(err)
	}
	if n := storeLen(t, store); n != 1 {
		t.Fatalf("store holds %d entries after 1 failed + 1 healthy run, want 1", n)
	}

	// With the "bug" fixed, the failed slot re-executes (a miss, then a
	// put); the healthy slot replays (a hit).
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, _ *atomic.Bool) RunResult {
		return RunResult{Point: p.Index, Label: p.Label, Rep: rep,
			Seed: DeriveSeed(spec.BaseSeed, p.Label, rep), AggKbps: 100, RecoverySec: -1}
	})
	eng2 := Engine{Parallel: 1, Cache: store}
	res, err := eng2.Run(isolateSpec())
	if err != nil {
		t.Fatal(err)
	}
	if cs := eng2.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("retry cache stats = %+v, want 1 hit / 1 miss", cs)
	}
	if res.Runs[0].Failed {
		t.Error("retry still failed: the failure was served from cache")
	}
}
