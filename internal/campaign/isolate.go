// Run-level isolation: the layer between the worker pool and one
// simulation that turns a diverging or crashing replication into a
// structured per-run failure instead of a dead campaign.
//
// Two faults are contained here. A panic anywhere inside a replication
// (scenario build, simulation, metric extraction) is recovered and
// recorded as a failed RunResult — each run owns its entire simulator
// state, so a recovered panic cannot corrupt its siblings. A run that
// exceeds Engine.RunTimeout wall-clock seconds is recorded as a timeout
// failure and stopped: the isolator raises the replication's stop flag,
// which its sim.Engine polls every few thousand events, so the
// goroutine returns soon after the deadline and its CPU is reclaimed in
// process. Topology build (random-disk resampling included) is not
// interruptible; the stop takes effect once the event loop starts.
//
// Only the outcome the isolator keeps is counted: a timed-out run's late
// result, panic included, is discarded uncounted.
package campaign

import (
	"fmt"
	"sync/atomic"
	"time"
)

// runReplication is the simulation entry point, indirected so isolation
// tests can substitute a hanging or panicking run without needing a
// pathological scenario. A non-nil stop is the replication's stop
// request: once raised, the simulation should return promptly.
var runReplication = runOne

// runIsolated executes one replication under the engine's isolation
// policy. Without a timeout it stays on the caller's goroutine (the
// common path allocates nothing extra); with one it races the guarded
// run against the deadline and stops the run when the deadline wins.
func (e *Engine) runIsolated(spec Spec, p Point, rep int, durSec float64) RunResult {
	// Read the entry point on the caller's goroutine: a timed-out run's
	// goroutine outlives Run, and tests swap runReplication between runs.
	run := runReplication
	if e.RunTimeout <= 0 {
		return e.keep(spec, p, rep, guarded(func() RunResult { return run(spec, p, rep, durSec, nil) }))
	}
	stop := new(atomic.Bool)
	done := make(chan outcome, 1)
	go func() { done <- guarded(func() RunResult { return run(spec, p, rep, durSec, stop) }) }()
	timer := time.NewTimer(e.RunTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return e.keep(spec, p, rep, o)
	case <-timer.C:
		stop.Store(true)
		e.countFault((*FaultCounters).addRunTimeout)
		return e.failRun(spec, p, rep,
			fmt.Sprintf("run exceeded the %v wall-clock timeout", e.RunTimeout))
	}
}

// outcome is how one replication ended: its result, or the value it
// panicked with.
type outcome struct {
	rr       RunResult
	panicked any
}

// guarded runs one replication with panic containment. It counts
// nothing, so a run the isolator has already given up on cannot count a
// late outcome.
func guarded(run func() RunResult) (o outcome) {
	defer func() { o.panicked = recover() }()
	return outcome{rr: run()}
}

// keep settles a finished replication: its result, or a counted
// structured failure when it panicked.
func (e *Engine) keep(spec Spec, p Point, rep int, o outcome) RunResult {
	if o.panicked == nil {
		return o.rr
	}
	e.countFault((*FaultCounters).addRunPanic)
	return e.failRun(spec, p, rep, fmt.Sprintf("panic: %v", o.panicked))
}

// failRun builds the structured failure result for one replication and
// counts it. RecoverySec keeps the no-fault sentinel so downstream
// consumers that ignore Failed still read consistent sentinels.
func (e *Engine) failRun(spec Spec, p Point, rep int, msg string) RunResult {
	e.countFault((*FaultCounters).addRunFailed)
	return RunResult{
		Point: p.Index, Label: p.Label, Rep: rep,
		Seed:        DeriveSeed(spec.BaseSeed, p.Label, rep),
		RecoverySec: -1,
		Failed:      true,
		Error:       msg,
	}
}

// countFault applies one fault event to the engine's own counters and,
// when configured, to the shared aggregation counters.
func (e *Engine) countFault(f func(*FaultCounters)) {
	f(&e.faults)
	if e.Faults != nil {
		f(e.Faults)
	}
}
