package campaign

import (
	"bytes"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ezflow/internal/fabric"
)

// fabricSpec is the small grid the cache tests sweep: 2 points × 2 reps
// of a short chain run — enough to exercise aggregation (including the
// pooled bin statistics a lossy cache round trip would corrupt) while
// staying fast.
func fabricSpec() Spec {
	return Spec{
		Name:        "fabric-test",
		Axes:        []Axis{{Name: "hops", Values: []string{"2", "3"}}},
		Reps:        2,
		BaseSeed:    5,
		DurationSec: 5,
	}
}

// emit renders a result through both sinks, the byte-identity yardstick
// of every test below.
func emit(t *testing.T, res *Result) (js, cs []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	if err := (JSONSink{W: &jb}).Emit(res); err != nil {
		t.Fatal(err)
	}
	if err := (CSVSink{W: &cb}).Emit(res); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// storeLen counts the entry files on disk in store.
func storeLen(t *testing.T, store *fabric.Store) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(store.Dir(), "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestRunKeyGolden pins the cache key of a fixed replication. Drift
// here means every deployed fabric store goes cold on upgrade — legal
// only as a deliberate schema bump, with this pin updated alongside.
func TestRunKeyGolden(t *testing.T) {
	defer SetCacheVersionForTest("golden-test-v1")()
	spec := Spec{Name: "pin", BaseSeed: 7, Reps: 2, DurationSec: 60}
	points, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	k, err := runKey(spec, points[0], 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	const want = "5dbe350149bf6001ac3c713529a95c6e9f700dfc010a9af372a7ab07e89112b8"
	if k.ID != want {
		t.Errorf("run key drifted:\n got %s\nwant %s", k.ID, want)
	}
	if k.Version != "golden-test-v1" {
		t.Errorf("key version = %q", k.Version)
	}
	// The key is position-independent: the same point at another grid
	// index must hash identically, or extending a sweep misses old work.
	moved := points[0]
	moved.Index = 42
	k2, err := runKey(spec, moved, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if k2.ID != k.ID {
		t.Error("grid index leaked into the cache key")
	}
}

// TestWarmCacheReplay is the tentpole acceptance test: a warm-cache
// campaign performs zero simulations and emits JSON and CSV
// byte-identical to an uncached run.
func TestWarmCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := fabricSpec()
	baseEng := Engine{Parallel: 1}
	baseRes, err := baseEng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, baseRes)

	store, err := fabric.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}

	cold := Engine{Parallel: 1, Cache: store}
	coldRes, err := cold.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	js, cs := emit(t, coldRes)
	if !bytes.Equal(js, wantJSON) || !bytes.Equal(cs, wantCSV) {
		t.Error("cold cached run diverges from the uncached run")
	}
	if st := cold.CacheStats(); st.Hits != 0 || st.Misses != 4 {
		t.Errorf("cold stats = %+v, want 0 hits / 4 misses", st)
	}
	if st := store.Stats(); st.Puts != 4 {
		t.Errorf("store puts = %d, want 4", st.Puts)
	}

	var simulated atomic.Int64
	stubRuns(t, func(spec Spec, p Point, rep int, durSec float64, stop *atomic.Bool) RunResult {
		simulated.Add(1)
		return runOne(spec, p, rep, durSec, stop)
	})
	warm := Engine{Parallel: 1, Cache: store}
	warmRes, err := warm.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	js, cs = emit(t, warmRes)
	if !bytes.Equal(js, wantJSON) {
		t.Error("warm-cache JSON diverges from the uncached run")
	}
	if !bytes.Equal(cs, wantCSV) {
		t.Error("warm-cache CSV diverges from the uncached run")
	}
	if st := warm.CacheStats(); st.Hits != 4 || st.Misses != 0 {
		t.Errorf("warm stats = %+v, want 4 hits / 0 misses (zero simulations)", st)
	}
	if n := simulated.Load(); n != 0 {
		t.Errorf("warm replay simulated %d runs, want 0", n)
	}
}

// TestCacheVersionBumpInvalidates simulates a release: entries written
// under one code version must be recomputed — and garbage-collected —
// under the next.
func TestCacheVersionBumpInvalidates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	defer SetCacheVersionForTest("fabric-test-v1")()
	spec := fabricSpec()
	store, err := fabric.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := Engine{Parallel: 1, Cache: store}
	if _, err := cold.Run(spec); err != nil {
		t.Fatal(err)
	}

	SetCacheVersionForTest("fabric-test-v2")
	bumped := Engine{Parallel: 1, Cache: store}
	if _, err := bumped.Run(spec); err != nil {
		t.Fatal(err)
	}
	if st := bumped.CacheStats(); st.Hits != 0 || st.Misses != 4 {
		t.Errorf("post-bump stats = %+v, want 0 hits / 4 misses", st)
	}
	if st := store.Stats(); st.Evictions != 4 {
		t.Errorf("store evictions = %d, want 4 (stale entries must be collected)", st.Evictions)
	}
	if n := storeLen(t, store); n != 4 {
		t.Errorf("store has %d entries, want 4 fresh ones", n)
	}

	// Same version again: everything hits.
	warm := Engine{Parallel: 1, Cache: store}
	if _, err := warm.Run(spec); err != nil {
		t.Fatal(err)
	}
	if st := warm.CacheStats(); st.Hits != 4 || st.Misses != 0 {
		t.Errorf("post-bump warm stats = %+v, want 4 hits / 0 misses", st)
	}
}

// TestInterruptResume pins the graceful-interrupt contract: an
// interrupted campaign returns ErrInterrupted, its completed
// replications are in the cache, and rerunning the same spec resumes —
// paying only for the runs the interruption cut off.
func TestInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := fabricSpec()
	store, err := fabric.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	var once sync.Once
	eng := Engine{Parallel: 1, Cache: store, Interrupt: interrupt}
	eng.Progress = func(done, total int) {
		if done == 2 {
			once.Do(func() { close(interrupt) })
		}
	}
	res, err := eng.Run(spec)
	if err != ErrInterrupted {
		t.Fatalf("Run returned %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatal("interrupted Run returned a partial result")
	}
	// Serial pool: exactly the two finished runs are cached.
	if st := eng.CacheStats(); st.Misses != 2 {
		t.Errorf("interrupted stats = %+v, want 2 misses", st)
	}

	resume := Engine{Parallel: 1, Cache: store}
	resumeRes, err := resume.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := resume.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("resume stats = %+v, want 2 hits / 2 misses", st)
	}

	// And the resumed result matches an uncached run byte-for-byte.
	base := Engine{Parallel: 1}
	baseRes, err := base.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, baseRes)
	js, cs := emit(t, resumeRes)
	if !bytes.Equal(js, wantJSON) || !bytes.Equal(cs, wantCSV) {
		t.Error("resumed campaign diverges from an uninterrupted run")
	}
}
