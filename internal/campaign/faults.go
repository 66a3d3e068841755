// Fault accounting: the counters behind the campaign fabric's
// failure-handling layer. Every recovery action — a worker process
// declared dead, a replacement launched, an assignment re-dealt, a run
// cut off by its wall-clock timeout or rescued from a panic — increments
// exactly one counter here, so "how unhealthy was that campaign?" is
// always answerable from the ezcampaign summary line without grepping
// logs.
//
// Counters are cumulative and atomic. An Engine always tracks its own
// FaultCounters (Engine.FaultStats); callers that aggregate — the
// ezcampaign CLI summary — additionally share one FaultCounters between
// engines and shard coordinators via Engine.Faults / ShardOptions.Faults.
package campaign

import "sync/atomic"

// FaultCounters accumulates fault-handling events. All methods are safe
// for concurrent use and all are no-ops on a nil receiver, so optional
// shared counters cost one branch when absent.
type FaultCounters struct {
	workerFailures atomic.Uint64
	workerRestarts atomic.Uint64
	runsRetried    atomic.Uint64
	runsTimeout    atomic.Uint64
	runsPanicked   atomic.Uint64
	runsFailed     atomic.Uint64
}

// FaultStats is a point-in-time snapshot of a FaultCounters.
type FaultStats struct {
	// WorkerFailures counts worker processes declared dead: crashed,
	// stalled past the liveness deadline, or emitting a corrupt stream.
	WorkerFailures uint64 `json:"worker_failures"`
	// WorkerRestarts counts replacement workers launched after a failure.
	WorkerRestarts uint64 `json:"worker_restarts"`
	// RunsRetried counts assignments re-dealt to a replacement worker
	// (completed runs replay from cache, so retries are nearly free).
	RunsRetried uint64 `json:"runs_retried"`
	// RunsTimeout counts replications cut off by the per-run wall-clock
	// timeout.
	RunsTimeout uint64 `json:"runs_timeout"`
	// RunsPanicked counts replications that panicked and were converted
	// into structured per-run failures.
	RunsPanicked uint64 `json:"runs_panicked"`
	// RunsFailed counts replications that ended marked failed, whatever
	// the cause (timeout, panic, or a persistently failing assignment).
	RunsFailed uint64 `json:"runs_failed"`
}

// Snapshot reads the counters atomically (zero on a nil receiver).
func (c *FaultCounters) Snapshot() FaultStats {
	if c == nil {
		return FaultStats{}
	}
	return FaultStats{
		WorkerFailures: c.workerFailures.Load(),
		WorkerRestarts: c.workerRestarts.Load(),
		RunsRetried:    c.runsRetried.Load(),
		RunsTimeout:    c.runsTimeout.Load(),
		RunsPanicked:   c.runsPanicked.Load(),
		RunsFailed:     c.runsFailed.Load(),
	}
}

// addWorkerFailure records one dead worker. No-op on nil.
func (c *FaultCounters) addWorkerFailure() {
	if c != nil {
		c.workerFailures.Add(1)
	}
}

// addWorkerRestart records one replacement worker launch. No-op on nil.
func (c *FaultCounters) addWorkerRestart() {
	if c != nil {
		c.workerRestarts.Add(1)
	}
}

// addRunsRetried records n assignments re-dealt after a worker failure.
// No-op on nil.
func (c *FaultCounters) addRunsRetried(n int) {
	if c != nil && n > 0 {
		c.runsRetried.Add(uint64(n))
	}
}

// addRunTimeout records one run cut off by the wall-clock timeout.
// No-op on nil.
func (c *FaultCounters) addRunTimeout() {
	if c != nil {
		c.runsTimeout.Add(1)
	}
}

// addRunPanic records one recovered run panic. No-op on nil.
func (c *FaultCounters) addRunPanic() {
	if c != nil {
		c.runsPanicked.Add(1)
	}
}

// addRunFailed records one replication that ended marked failed. No-op
// on nil.
func (c *FaultCounters) addRunFailed() {
	if c != nil {
		c.runsFailed.Add(1)
	}
}

// addTimeouts merges n run timeouts reported by a worker's summary
// frame. No-op on nil.
func (c *FaultCounters) addTimeouts(n uint64) {
	if c != nil && n > 0 {
		c.runsTimeout.Add(n)
	}
}

// addPanics merges n recovered panics reported by a worker's summary
// frame. No-op on nil.
func (c *FaultCounters) addPanics(n uint64) {
	if c != nil && n > 0 {
		c.runsPanicked.Add(n)
	}
}
