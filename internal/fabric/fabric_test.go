package fabric

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// keyMaterial is a fixed fixture; its canonical JSON (and therefore its
// hash) must never drift, or every cache in the field silently cools.
type keyMaterial struct {
	Kind  string `json:"kind"`
	Label string `json:"label"`
	Seed  int64  `json:"seed"`
}

var fixedMaterial = keyMaterial{Kind: "test.run", Label: "topology=chain hops=4", Seed: 12345}

// TestKeyGolden pins the content hash of a fixed key material. If this
// fails, key derivation changed: every existing cache entry becomes
// unreachable, which must be a deliberate decision (bump the material
// schema and update the pin), never an accident.
func TestKeyGolden(t *testing.T) {
	k, err := NewKey("v-test", fixedMaterial)
	if err != nil {
		t.Fatal(err)
	}
	const want = "5a88a84c7c298f6d26d81b640fee3be1157c450c153d6a8e549a902c0a48d29c"
	if k.ID != want {
		t.Errorf("key hash drifted:\n got %s\nwant %s", k.ID, want)
	}
	if k.Version != "v-test" {
		t.Errorf("version = %q, want v-test", k.Version)
	}
}

// TestKeyDeterminism checks the same material always yields the same
// key, and different material a different one.
func TestKeyDeterminism(t *testing.T) {
	a, _ := NewKey("v1", fixedMaterial)
	b, _ := NewKey("v1", fixedMaterial)
	if a.ID != b.ID {
		t.Errorf("identical material hashed differently: %s vs %s", a.ID, b.ID)
	}
	m := fixedMaterial
	m.Seed++
	c, _ := NewKey("v1", m)
	if c.ID == a.ID {
		t.Error("different material collided")
	}
}

type payload struct {
	Kbps float64 `json:"kbps"`
	N    int     `json:"n"`
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openStore(t)
	k, _ := NewKey("v1", fixedMaterial)

	var got payload
	if s.Get(k, &got) {
		t.Fatal("Get hit on an empty store")
	}
	want := payload{Kbps: 512.25, N: 7}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if !s.Get(k, &got) {
		t.Fatal("Get missed a just-written entry")
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put / 0 evictions", st)
	}
	if n := storeLen(t, s); n != 1 {
		t.Errorf("store holds %d entries, want 1", n)
	}
}

// storeLen counts the entry files on disk in s.
func storeLen(t *testing.T, s *Store) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(s.Dir(), "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// entryPath mirrors Store.path for white-box corruption tests.
func entryPath(s *Store, k Key) string {
	return filepath.Join(s.Dir(), k.ID[:2], k.ID+".json")
}

// TestStoreCorruptEntry checks that unreadable entries degrade to a
// miss and are garbage-collected, never surfaced as errors.
func TestStoreCorruptEntry(t *testing.T) {
	cases := map[string]func(path string){
		"garbage":   func(p string) { os.WriteFile(p, []byte("not json at all"), 0o644) },
		"truncated": func(p string) { data, _ := os.ReadFile(p); os.WriteFile(p, data[:len(data)/2], 0o644) },
		"schema": func(p string) {
			os.WriteFile(p, []byte(`{"schema":999,"key":"x","version":"v1","payload":{}}`), 0o644)
		},
		"wrong-key": func(p string) {
			os.WriteFile(p, []byte(`{"schema":1,"key":"deadbeef","version":"v1","payload":{}}`), 0o644)
		},
		"bad-payload": func(p string) {
			os.WriteFile(p, []byte(`{"schema":1,"key":"KEY","version":"v1","payload":["not","a","payload"]}`), 0o644)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := openStore(t)
			k, _ := NewKey("v1", fixedMaterial)
			if err := s.Put(k, payload{Kbps: 1}); err != nil {
				t.Fatal(err)
			}
			path := entryPath(s, k)
			if name == "bad-payload" {
				// Patch the real key in so only the payload is at fault.
				data := []byte(`{"schema":1,"key":"` + k.ID + `","version":"v1","payload":["not","a","payload"]}`)
				os.WriteFile(path, data, 0o644)
			} else {
				corrupt(path)
			}
			var got payload
			if s.Get(k, &got) {
				t.Fatal("Get hit on a corrupt entry")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry was not garbage-collected")
			}
			if st := s.Stats(); st.Evictions != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 eviction / 1 miss", st)
			}
			// The slot is clean again: a fresh Put+Get works.
			if err := s.Put(k, payload{Kbps: 2}); err != nil {
				t.Fatal(err)
			}
			if !s.Get(k, &got) || got.Kbps != 2 {
				t.Error("store did not recover after corruption")
			}
		})
	}
}

// TestStoreVersionInvalidation checks the invalidation lever: an entry
// written by one code version is a miss for another, and the stale file
// is deleted in place.
func TestStoreVersionInvalidation(t *testing.T) {
	s := openStore(t)
	k1, _ := NewKey("v1", fixedMaterial)
	if err := s.Put(k1, payload{Kbps: 1}); err != nil {
		t.Fatal(err)
	}
	k2, _ := NewKey("v2", fixedMaterial)
	if k1.ID != k2.ID {
		t.Fatal("version leaked into the hash — bumps would orphan entries instead of invalidating them")
	}
	var got payload
	if s.Get(k2, &got) {
		t.Fatal("v2 Get hit a v1 entry")
	}
	if _, err := os.Stat(entryPath(s, k1)); !os.IsNotExist(err) {
		t.Error("stale-version entry was not garbage-collected")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The new version repopulates the same address.
	if err := s.Put(k2, payload{Kbps: 2}); err != nil {
		t.Fatal(err)
	}
	if !s.Get(k2, &got) || got.Kbps != 2 {
		t.Error("post-bump Put/Get failed")
	}
}

// TestStoreNil checks every method is a safe no-op on a nil store, so
// call sites never need cache-enabled branches.
func TestStoreNil(t *testing.T) {
	var s *Store
	k, _ := NewKey("v1", fixedMaterial)
	var got payload
	if s.Get(k, &got) {
		t.Error("nil Get hit")
	}
	if err := s.Put(k, payload{}); err != nil {
		t.Error(err)
	}
	if (s.Stats() != Stats{}) {
		t.Error("nil store reported non-zero state")
	}
}

// TestStatsJSON pins the stats wire names the /stats endpoint exposes.
func TestStatsJSON(t *testing.T) {
	b, err := json.Marshal(Stats{Hits: 1, Misses: 2, Puts: 3, Evictions: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"hits":1,"misses":2,"puts":3,"evictions":4}`
	if string(b) != want {
		t.Errorf("stats JSON = %s, want %s", b, want)
	}
}

func TestPlanShards(t *testing.T) {
	t.Run("coverage", func(t *testing.T) {
		for _, tc := range []struct{ points, reps, shards int }{
			{1, 1, 1}, {3, 2, 2}, {5, 3, 4}, {2, 2, 16},
		} {
			plans := PlanShards(tc.points, tc.reps, tc.shards)
			seen := map[Assignment]bool{}
			total := 0
			for _, plan := range plans {
				for _, a := range plan {
					if seen[a] {
						t.Errorf("%+v: duplicate assignment %+v", tc, a)
					}
					seen[a] = true
					if a.Point < 0 || a.Point >= tc.points || a.Rep < 0 || a.Rep >= tc.reps {
						t.Errorf("%+v: out-of-grid assignment %+v", tc, a)
					}
					total++
				}
			}
			if total != tc.points*tc.reps {
				t.Errorf("%+v: %d assignments, want %d", tc, total, tc.points*tc.reps)
			}
			if len(plans) > tc.points*tc.reps {
				t.Errorf("%+v: %d shards for %d jobs (empty shards planned)", tc, len(plans), tc.points*tc.reps)
			}
			// Balance: shard sizes differ by at most one.
			min, max := total, 0
			for _, plan := range plans {
				if len(plan) < min {
					min = len(plan)
				}
				if len(plan) > max {
					max = len(plan)
				}
			}
			if max-min > 1 {
				t.Errorf("%+v: unbalanced shards (sizes %d..%d)", tc, min, max)
			}
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		a := PlanShards(4, 3, 3)
		b := PlanShards(4, 3, 3)
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatal("PlanShards is not deterministic")
				}
			}
		}
	})
}
