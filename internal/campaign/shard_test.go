package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ezflow/internal/fabric"
)

// TestMain doubles the test binary as a shard worker: RunSharded tests
// point opts.Command at the binary itself with this variable set, so
// the worker protocol is exercised against real subprocesses without
// building ezcampaign first.
func TestMain(m *testing.M) {
	if os.Getenv("EZCAMPAIGN_TEST_WORKER") == "1" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerCommand returns ShardOptions fields that re-exec this test
// binary in worker mode.
func workerCommand(t *testing.T) (cmd, env []string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe}, []string{"EZCAMPAIGN_TEST_WORKER=1"}
}

// TestShardedMatchesInProcess is the shard-merge determinism pin: the
// same campaign, run in 1, 2, and 4 worker subprocesses, must emit
// JSON and CSV byte-identical to a single-process -parallel 1 run.
func TestShardedMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations in subprocesses")
	}
	spec := fabricSpec()
	base := Engine{Parallel: 1}
	baseRes, err := base.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, baseRes)
	cmd, env := workerCommand(t)

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var progressed int
			res, cs, err := RunSharded(spec, ShardOptions{
				Shards:   shards,
				Command:  cmd,
				Env:      env,
				Parallel: 2,
				Progress: func(done, total int) { progressed = done },
			})
			if err != nil {
				t.Fatal(err)
			}
			js, csv := emit(t, res)
			if !bytes.Equal(js, wantJSON) {
				t.Error("sharded JSON diverges from the single-process run")
			}
			if !bytes.Equal(csv, wantCSV) {
				t.Error("sharded CSV diverges from the single-process run")
			}
			if cs.Hits != 0 || cs.Misses != 0 {
				t.Errorf("cache stats %+v without a cache dir", cs)
			}
			if progressed != len(baseRes.Runs) {
				t.Errorf("progress reached %d, want %d", progressed, len(baseRes.Runs))
			}
		})
	}
}

// TestShardProgressSerialised pins that concurrent shard supervisors
// never call Progress at once: each call holds the callback for a
// moment, and no call may overlap another.
func TestShardProgressSerialised(t *testing.T) {
	const shards, perShard = 4, 8
	m := &shardMerge{
		reps: perShard,
		runs: make([]RunResult, shards*perShard),
		got:  make([]bool, shards*perShard),
	}
	var inside, overlaps, calls atomic.Int32
	progress := func(done, total int) {
		if inside.Add(1) > 1 {
			overlaps.Add(1)
		}
		calls.Add(1)
		time.Sleep(100 * time.Microsecond)
		inside.Add(-1)
	}
	var wg sync.WaitGroup
	for p := 0; p < shards; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < perShard; r++ {
				if err := m.record(RunResult{Point: p, Rep: r}, progress); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	if calls.Load() != shards*perShard {
		t.Errorf("progress called %d times, want %d", calls.Load(), shards*perShard)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d progress calls overlapped another", n)
	}
}

// TestShardedSharesCache checks workers populate and reuse one fabric
// directory: a cold sharded run misses everywhere, a second (at a
// different shard count) replays entirely from cache — byte-identical.
func TestShardedSharesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations in subprocesses")
	}
	spec := fabricSpec()
	dir := filepath.Join(t.TempDir(), "cache")
	cmd, env := workerCommand(t)

	cold, coldStats, err := RunSharded(spec, ShardOptions{
		Shards: 2, Command: cmd, Env: env, CacheDir: dir, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Hits != 0 || coldStats.Misses != 4 {
		t.Errorf("cold stats = %+v, want 0 hits / 4 misses", coldStats)
	}

	warm, warmStats, err := RunSharded(spec, ShardOptions{
		Shards: 4, Command: cmd, Env: env, CacheDir: dir, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Hits != 4 || warmStats.Misses != 0 {
		t.Errorf("warm stats = %+v, want 4 hits / 0 misses", warmStats)
	}
	coldJSON, coldCSV := emit(t, cold)
	warmJSON, warmCSV := emit(t, warm)
	if !bytes.Equal(coldJSON, warmJSON) || !bytes.Equal(coldCSV, warmCSV) {
		t.Error("warm sharded replay diverges from the cold run")
	}
}

// TestWorkerRejectsBadAssignment checks a worker reports out-of-grid
// assignments as an error frame instead of running garbage.
func TestWorkerRejectsBadAssignment(t *testing.T) {
	in := workerInput{Spec: fabricSpec(), Assignments: []fabric.Assignment{{Point: 99, Rep: 0}}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WorkerMain(bytes.NewReader(b), &out); err == nil {
		t.Fatal("WorkerMain accepted an out-of-grid assignment")
	}
	var f workerFrame
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatalf("worker wrote a non-frame response: %q", out.String())
	}
	if !strings.Contains(f.Error, "outside") {
		t.Errorf("error frame = %q, want an out-of-grid report", f.Error)
	}
}

// TestRunShardedNeedsCommand pins the configuration error path.
func TestRunShardedNeedsCommand(t *testing.T) {
	if _, _, err := RunSharded(fabricSpec(), ShardOptions{Shards: 2}); err == nil {
		t.Fatal("RunSharded ran without a worker command")
	}
}
