// Sharded multi-process execution: a campaign grid split across worker
// subprocesses speaking a line-oriented JSON protocol over stdio, under
// a per-shard supervisor that survives worker failures.
//
// The coordinator (RunSharded) enumerates the grid once, deals the
// (point, rep) replication jobs across shards with fabric.PlanShards,
// and launches one supervisor per shard. Each supervisor runs a worker
// subprocess on the shard's unfinished assignments: the worker receives
// a single JSON document on stdin — the full campaign spec plus its
// assignment list — re-enumerates the grid (Enumerate is deterministic,
// so point indices agree by construction), executes its assignments on
// an in-process Engine (cache included, when a directory is shared),
// and streams one NDJSON frame per completed replication back on
// stdout, closing with a summary frame.
//
// Supervision: a worker that crashes, stalls past the liveness deadline,
// or emits a corrupt or protocol-violating stream (a truncated frame, a
// duplicate or out-of-assignment run, a premature summary) is killed and
// replaced, with only its unfinished assignments re-dealt to the
// replacement under capped exponential backoff — when a cache directory
// is shared, the replacement replays already-completed runs as hits, so
// retries re-simulate nothing. A shard that fails maxRetries consecutive
// times without completing a single new replication gives up on the
// first unfinished assignment: that run is recorded as a structured
// failure (RunResult.Failed) and the campaign completes degraded instead
// of aborting. Worker stderr is captured (last 4 KiB) and threaded into
// every failure report.
//
// Determinism argument: every replication's seed comes from
// DeriveSeed(base, label, rep) — a pure function — and the coordinator
// places each returned run at its grid position (point*reps + rep)
// rather than in arrival order. Partitioning, completion order, worker
// deaths, and reassignment are therefore invisible to the merged result,
// and assemble() produces output byte-identical to a single-process
// -parallel 1 run under any recoverable failure pattern. The golden
// shard tests pin this at shard counts 1, 2, and 4, and the chaos tests
// re-pin it under injected crash/hang/garble faults.
package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"ezflow/internal/fabric"
)

// workerInput is the single JSON document a coordinator writes to a
// worker's stdin.
type workerInput struct {
	Spec        Spec                `json:"spec"`
	Assignments []fabric.Assignment `json:"assignments"`
	// CacheDir, when set, has the worker open (or create) the shared
	// fabric store there.
	CacheDir string `json:"cache_dir,omitempty"`
	// Parallel bounds the worker's in-process run concurrency.
	Parallel int `json:"parallel,omitempty"`
	// RunTimeoutSec, when positive, caps each replication's wall-clock
	// seconds inside the worker (Engine.RunTimeout).
	RunTimeoutSec float64 `json:"run_timeout_sec,omitempty"`
}

// workerFrame is one NDJSON message a worker writes to stdout: a
// completed replication, or the closing summary.
type workerFrame struct {
	Run *wireRun `json:"run,omitempty"`
	// Done marks the summary frame, carrying the worker's cache traffic
	// and run-isolation tallies.
	Done   bool   `json:"done,omitempty"`
	Hits   uint64 `json:"cache_hits,omitempty"`
	Misses uint64 `json:"cache_misses,omitempty"`
	// RunsTimeout / RunsPanicked report the worker engine's isolation
	// events so the coordinator's fault counters see worker-side faults.
	RunsTimeout  uint64 `json:"runs_timeout,omitempty"`
	RunsPanicked uint64 `json:"runs_panicked,omitempty"`
	// Error reports a worker-side failure (bad input, unknown point).
	Error string `json:"error,omitempty"`
}

// WorkerMain is the entry point of `ezcampaign -worker`: it decodes one
// workerInput document from r, executes the assigned replications, and
// streams result frames to w. It never writes anything but protocol
// frames to w — human diagnostics belong on stderr. When the EZ_CHAOS
// environment variable is set, the worker sabotages its own stream at
// the prescribed frames (see chaos.go) — the test harness for the
// coordinator's supervision paths.
func WorkerMain(r io.Reader, w io.Writer) error {
	var in workerInput
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("campaign: worker reading input: %w", err)
	}
	chaos, err := parseChaos(os.Getenv(chaosEnv))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	err = runWorker(in, newChaosEmitter(bw, chaos))
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// runWorker executes one worker's assignments and streams frames
// through the emitter.
func runWorker(in workerInput, out *chaosEmitter) error {
	points, err := in.Spec.Enumerate()
	if err != nil {
		return writeWorkerError(out, err)
	}
	reps, durSec := in.Spec.effective()
	for _, a := range in.Assignments {
		if a.Point < 0 || a.Point >= len(points) || a.Rep < 0 || a.Rep >= reps {
			return writeWorkerError(out, fmt.Errorf("campaign: assignment (point %d, rep %d) outside the %dx%d grid", a.Point, a.Rep, len(points), reps))
		}
	}
	eng := &Engine{
		Parallel:   in.Parallel,
		RunTimeout: time.Duration(in.RunTimeoutSec * float64(time.Second)),
	}
	if in.CacheDir != "" {
		store, err := fabric.Open(in.CacheDir)
		if err != nil {
			return writeWorkerError(out, err)
		}
		eng.Cache = store
	}

	// Workers stream frames in completion order under a lock; the
	// coordinator reorders by grid position, so interleaving is free.
	var mu sync.Mutex
	var emitErr error
	jobs := make([]func() struct{}, len(in.Assignments))
	for i, a := range in.Assignments {
		a := a
		jobs[i] = func() struct{} {
			rr := eng.exec(in.Spec, points[a.Point], a.Rep, durSec)
			wr := wireFromRun(rr)
			mu.Lock()
			if err := out.emit(workerFrame{Run: &wr}); err != nil && emitErr == nil {
				emitErr = err
			}
			mu.Unlock()
			return struct{}{}
		}
	}
	runAll(in.Parallel, jobs, nil)
	if emitErr != nil {
		return emitErr
	}
	cs := eng.CacheStats()
	fs := eng.FaultStats()
	return out.emit(workerFrame{
		Done: true, Hits: cs.Hits, Misses: cs.Misses,
		RunsTimeout: fs.RunsTimeout, RunsPanicked: fs.RunsPanicked,
	})
}

// writeWorkerError reports a worker-side failure as a protocol frame
// (so the coordinator sees the cause, not just a dead pipe) and as the
// worker's exit error.
func writeWorkerError(out *chaosEmitter, err error) error {
	out.emit(workerFrame{Error: err.Error()}) //nolint:errcheck // the returned error already carries the cause
	return err
}

// ShardOptions configures a sharded campaign execution.
type ShardOptions struct {
	// Shards is the number of worker subprocesses (values < 1 mean 1).
	Shards int
	// Command is the argv launching one worker — typically
	// {os.Executable(), "-worker"}. The subprocess must read a
	// workerInput document on stdin and speak the frame protocol on
	// stdout; pointing this at an ssh wrapper shards across machines.
	Command []string
	// Env entries are appended to the inherited environment of every
	// worker.
	Env []string
	// CacheDir, when set, is the fabric store directory every worker
	// shares (atomic entry writes make concurrent access safe). A shared
	// cache is what makes supervision cheap: a replacement worker replays
	// its predecessor's completed runs as hits.
	CacheDir string
	// Parallel bounds each worker's in-process run concurrency; 0 lets
	// the worker pick GOMAXPROCS.
	Parallel int
	// RunTimeout, when positive, caps each replication's wall-clock time
	// inside every worker (see Engine.RunTimeout).
	RunTimeout time.Duration
	// Liveness is the longest a worker may go without emitting a frame
	// before the supervisor declares it hung, kills it, and re-deals its
	// unfinished assignments. It must comfortably exceed the slowest
	// single replication's wall time. 0 disables the deadline (a hung
	// worker then hangs its shard).
	Liveness time.Duration
	// MaxRetries is the number of consecutive worker failures without a
	// single newly completed replication the supervisor tolerates before
	// it gives up on the shard's first unfinished assignment and records
	// it as failed (default 3). Any completed replication resets the
	// count, so a worker that fails on every Nth run still finishes
	// everything else.
	MaxRetries int
	// Backoff is the base delay before relaunching a failed worker,
	// growing exponentially with consecutive no-progress failures and
	// capped at 64x (default 100ms, cap 6.4s).
	Backoff time.Duration
	// Faults, when non-nil, receives the coordinator's fault events
	// (worker failures/restarts, re-dealt and failed runs) plus the
	// isolation tallies workers report in their summary frames.
	Faults *FaultCounters
	// Progress, when non-nil, is called after every completed
	// replication with the number finished so far, across all shards.
	// Calls are serialised (made under the merge lock, so Progress must
	// not block) and arrive in completion order, as with
	// Engine.Progress.
	Progress func(done, total int)
}

// maxRetries resolves the consecutive-failure budget.
func (o ShardOptions) maxRetries() int {
	if o.MaxRetries <= 0 {
		return 3
	}
	return o.MaxRetries
}

// backoff resolves the relaunch delay after n consecutive no-progress
// failures (n >= 1).
func (o ShardOptions) backoff(n int) time.Duration {
	base := o.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	shift := n - 1
	if shift > 6 {
		shift = 6
	}
	return base << shift
}

// errShardFatal wraps worker errors that retrying cannot fix — a worker
// that read its input and rejected it (bad spec, out-of-grid
// assignment) is deterministic, so the supervisor aborts instead of
// burning its retry budget.
type errShardFatal struct{ err error }

func (e errShardFatal) Error() string { return e.err.Error() }
func (e errShardFatal) Unwrap() error { return e.err }

// shardMerge is the coordinator's shared grid bookkeeping: supervisors
// place completed replications at their grid position under one lock.
type shardMerge struct {
	points []Point
	reps   int

	mu   sync.Mutex
	runs []RunResult
	got  []bool
	done int
	cs   CacheStats
}

// record places one worker-reported run, validating it against the
// supervisor's pending set semantics: the caller guarantees (point,
// rep) was pending, so a duplicate here means two shards were dealt the
// same job — a planner bug worth crashing on. progress is called under
// the lock, so concurrent supervisors never call it at once.
func (m *shardMerge) record(r RunResult, progress func(done, total int)) error {
	i := r.Point*m.reps + r.Rep
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.got[i] {
		return errShardFatal{fmt.Errorf("campaign: (point %d, rep %d) merged twice — shard plan overlap", r.Point, r.Rep)}
	}
	m.runs[i] = r
	m.got[i] = true
	m.done++
	if progress != nil {
		progress(m.done, len(m.runs))
	}
	return nil
}

// addCacheStats merges one worker summary frame's cache traffic.
func (m *shardMerge) addCacheStats(hits, misses uint64) {
	m.mu.Lock()
	m.cs.Hits += hits
	m.cs.Misses += misses
	m.mu.Unlock()
}

// RunSharded executes the campaign across supervised worker
// subprocesses and returns the aggregated result plus the workers'
// combined cache traffic. The merged result is byte-identical to
// Engine.Run on the same spec (any Parallel) under any recoverable
// worker-failure pattern: see the package comment for the argument.
// Assignments that keep killing workers degrade to failed runs
// (RunResult.Failed, Aggregate.FailedRuns) rather than aborting the
// campaign.
func RunSharded(spec Spec, opts ShardOptions) (*Result, CacheStats, error) {
	points, err := spec.Enumerate()
	if err != nil {
		return nil, CacheStats{}, err
	}
	if len(opts.Command) == 0 {
		return nil, CacheStats{}, fmt.Errorf("campaign: RunSharded needs a worker command")
	}
	reps, _ := spec.effective()
	plan := fabric.PlanShards(len(points), reps, opts.Shards)
	total := len(points) * reps
	m := &shardMerge{
		points: points,
		reps:   reps,
		runs:   make([]RunResult, total),
		got:    make([]bool, total),
	}
	start := time.Now()
	errs := make(chan error, len(plan))
	for shard, assignments := range plan {
		shard, assignments := shard, assignments
		go func() {
			errs <- superviseShard(spec, opts, shard, assignments, m)
		}()
	}
	for range plan {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, m.cs, err
	}
	for i, ok := range m.got {
		if !ok {
			return nil, m.cs, fmt.Errorf("campaign: no shard returned (point %d, rep %d)", i/reps, i%reps)
		}
	}
	res := assemble(spec, points, reps, m.runs)
	res.Elapsed = time.Since(start)
	return res, m.cs, nil
}

// superviseShard owns one shard's assignment list until every entry is
// either merged or marked failed. Each iteration runs one worker on the
// still-pending assignments; on failure it re-deals the remainder to a
// replacement with capped exponential backoff, and after maxRetries
// consecutive failures without progress it records the first pending
// assignment as failed and moves on — the graceful-degradation policy.
// (With Parallel > 1 inside the worker, the first pending assignment is
// the most likely poison but not provably the one that killed the
// worker; degradation still terminates, because every round either
// completes a replication or retires an assignment.)
func superviseShard(spec Spec, opts ShardOptions, shard int, pending []fabric.Assignment, m *shardMerge) error {
	noProgress := 0
	for len(pending) > 0 {
		before := len(pending)
		err := runShard(spec, opts, pending, func(f workerFrame) error {
			if f.Done {
				m.addCacheStats(f.Hits, f.Misses)
				opts.Faults.addTimeouts(f.RunsTimeout)
				opts.Faults.addPanics(f.RunsPanicked)
				return nil
			}
			i := pendingIndex(pending, f.Run.Point, f.Run.Rep)
			if i < 0 {
				return fmt.Errorf("campaign: shard %d worker sent (point %d, rep %d), which is not among its pending assignments", shard, f.Run.Point, f.Run.Rep)
			}
			rr := f.Run.run(m.points[f.Run.Point], f.Run.Rep)
			if rr.Failed {
				opts.Faults.addRunFailed()
			}
			if err := m.record(rr, opts.Progress); err != nil {
				return err
			}
			pending = append(pending[:i], pending[i+1:]...)
			return nil
		})
		if err == nil && len(pending) > 0 {
			// Clean exit with work left: the "done frame with wrong
			// counts" fault. Retryable — the replacement re-deals the rest.
			err = fmt.Errorf("campaign: shard %d worker reported done with %d assignments unfinished", shard, len(pending))
		}
		if len(pending) == 0 {
			// All replications merged; a late stream error can only lose
			// summary accounting, never data.
			return nil
		}
		if err == nil {
			return nil
		}
		var fatal errShardFatal
		if errors.As(err, &fatal) {
			return err
		}
		opts.Faults.addWorkerFailure()
		if len(pending) < before {
			noProgress = 0
		} else {
			noProgress++
		}
		if noProgress >= opts.maxRetries() {
			// The head assignment has now outlived maxRetries workers
			// without the shard completing anything: give up on it and
			// degrade, instead of aborting the whole campaign.
			head := pending[0]
			pending = pending[1:]
			p := m.points[head.Point]
			opts.Faults.addRunFailed()
			rr := RunResult{
				Point: p.Index, Label: p.Label, Rep: head.Rep,
				Seed:        DeriveSeed(spec.BaseSeed, p.Label, head.Rep),
				RecoverySec: -1,
				Failed:      true,
				Error:       fmt.Sprintf("abandoned after %d consecutive worker failures; last: %v", opts.maxRetries(), err),
			}
			if merr := m.record(rr, opts.Progress); merr != nil {
				return merr
			}
			noProgress = 0
			if len(pending) == 0 {
				return nil
			}
		}
		opts.Faults.addWorkerRestart()
		opts.Faults.addRunsRetried(len(pending))
		time.Sleep(opts.backoff(noProgress + 1))
	}
	return nil
}

// pendingIndex finds an assignment in the pending list (-1 when absent
// — a duplicate or fabricated frame).
func pendingIndex(pending []fabric.Assignment, point, rep int) int {
	for i, a := range pending {
		if a.Point == point && a.Rep == rep {
			return i
		}
	}
	return -1
}

// tailBuffer is an io.Writer keeping only the last max bytes written —
// how worker stderr is captured without letting a log-spewing worker
// consume coordinator memory.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func newTailBuffer(max int) *tailBuffer { return &tailBuffer{max: max} }

// Write appends p, discarding the oldest bytes beyond the cap.
func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

// String returns the captured tail, trimmed for error embedding.
func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// frameMsg carries one decoded frame (or the stream's terminal decode
// error) from the reader goroutine to the supervisor's select loop.
type frameMsg struct {
	f   workerFrame
	err error
}

// runShard launches one worker subprocess, feeds it its assignments,
// and forwards every frame it emits to sink. It returns nil only for a
// clean protocol exchange: valid frames, a summary frame, exit status
// 0. Any other outcome — a sink-detected protocol violation, a corrupt
// frame, liveness-deadline silence, or a non-zero exit — kills the
// worker (when still alive) and returns an error carrying the last
// 4 KiB of its stderr, so shard failures are diagnosable from the
// coordinator's error without re-running.
func runShard(spec Spec, opts ShardOptions, assignments []fabric.Assignment, sink func(workerFrame) error) error {
	cmd := exec.Command(opts.Command[0], opts.Command[1:]...)
	cmd.Env = append(os.Environ(), opts.Env...)
	stderr := newTailBuffer(4096)
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return errShardFatal{fmt.Errorf("campaign: starting worker %q: %w", opts.Command[0], err)}
	}
	in := workerInput{
		Spec: spec, Assignments: assignments,
		CacheDir: opts.CacheDir, Parallel: opts.Parallel,
		RunTimeoutSec: opts.RunTimeout.Seconds(),
	}
	encErr := json.NewEncoder(stdin).Encode(in)
	stdin.Close() //nolint:errcheck // best-effort; the worker sees EOF either way

	// Frames are decoded on their own goroutine so the supervisor can
	// race every read against the liveness deadline.
	frames := make(chan frameMsg)
	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var f workerFrame
			if err := dec.Decode(&f); err != nil {
				if err != io.EOF {
					frames <- frameMsg{err: err}
				}
				close(frames)
				return
			}
			frames <- frameMsg{f: f}
		}
	}()

	var liveness <-chan time.Time
	var timer *time.Timer
	if opts.Liveness > 0 {
		timer = time.NewTimer(opts.Liveness)
		defer timer.Stop()
		liveness = timer.C
	}

	var frameErr error
	sawDone := false
loop:
	for {
		select {
		case msg, ok := <-frames:
			if !ok {
				break loop
			}
			if msg.err != nil {
				frameErr = fmt.Errorf("campaign: reading worker frames: %w", msg.err)
				break loop
			}
			if timer != nil {
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(opts.Liveness)
			}
			f := msg.f
			if f.Error != "" {
				// The worker read its input and rejected it; that is
				// deterministic, so retrying cannot help.
				frameErr = errShardFatal{fmt.Errorf("campaign: worker failed: %s", f.Error)}
				break loop
			}
			if f.Run == nil && !f.Done {
				continue
			}
			if f.Done {
				sawDone = true
			}
			if err := sink(f); err != nil {
				frameErr = err
				break loop
			}
			if f.Done {
				break loop
			}
		case <-liveness:
			frameErr = fmt.Errorf("campaign: worker emitted no frame for %v — declared hung", opts.Liveness)
			break loop
		}
	}
	// Reap the worker: kill it if the exchange broke early, drain the
	// decoder goroutine (it must finish before Wait closes the pipe),
	// then collect the exit status.
	if frameErr != nil || !sawDone {
		cmd.Process.Kill() //nolint:errcheck // already exited is fine
	}
	for range frames { //nolint:revive // draining until the decoder closes the channel
	}
	waitErr := cmd.Wait()
	// A worker that died early also broke the stdin pipe, so the exit
	// status is reported ahead of the (consequent) encode error.
	switch {
	case frameErr != nil:
		return withStderr(frameErr, stderr)
	case waitErr != nil:
		return withStderr(fmt.Errorf("campaign: worker exited: %w", waitErr), stderr)
	case encErr != nil:
		return withStderr(fmt.Errorf("campaign: writing worker input: %w", encErr), stderr)
	case !sawDone:
		return withStderr(fmt.Errorf("campaign: worker stream ended before its summary frame"), stderr)
	}
	return nil
}

// withStderr appends the worker's captured stderr tail to a failure,
// preserving errShardFatal wrapping.
func withStderr(err error, tail *tailBuffer) error {
	s := tail.String()
	if s == "" {
		return err
	}
	wrapped := fmt.Errorf("%w; worker stderr: %s", err, s)
	var fatal errShardFatal
	if errors.As(err, &fatal) {
		return errShardFatal{wrapped}
	}
	return wrapped
}
