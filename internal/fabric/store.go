// The persistent store: a directory of content-addressed JSON entries
// with atomic writes and tolerant reads.
package fabric

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// entrySchema versions the on-disk envelope format. An entry whose
// schema differs is treated exactly like a corrupt one: removed and
// reported as a miss.
const entrySchema = 1

// entry is the on-disk envelope around one cached payload.
type entry struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Version string          `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// Stats is a point-in-time snapshot of a store's traffic counters.
// Counters are cumulative since Open and safe to read concurrently.
type Stats struct {
	// Hits counts Gets that returned a payload.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that found nothing usable (absent, corrupt, or
	// stale-version entries all count here).
	Misses uint64 `json:"misses"`
	// Puts counts successfully written entries.
	Puts uint64 `json:"puts"`
	// Evictions counts corrupt or stale-version files deleted during
	// Get.
	Evictions uint64 `json:"evictions"`
}

// Store is a content-addressed result cache backed by a directory of
// JSON files, one per entry, sharded into 256 subdirectories by the
// first hash byte. All methods are safe for concurrent use from multiple
// goroutines and multiple processes: writes are temp-file-plus-rename
// atomic, and readers either see a complete entry or none.
type Store struct {
	dir string

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
}

// Open creates (if necessary) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("fabric: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file.
func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.ID[:2], k.ID+".json")
}

// Get looks the key up and, on a hit, unmarshals the stored payload into
// out (which must be a pointer). It returns false on any kind of miss:
// no entry, an entry written by a different code version, or a corrupt /
// truncated file — the latter two are deleted on the way out so the next
// Put starts clean. Get never fails a campaign: I/O errors degrade to
// misses.
func (s *Store) Get(k Key, out any) bool {
	if s == nil || !k.valid() {
		return false
	}
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Schema != entrySchema || e.Key != k.ID {
		s.discard(path)
		s.misses.Add(1)
		return false
	}
	if e.Version != k.Version {
		// A different code version produced this result; the simulator's
		// behaviour may have changed, so the entry is unusable. Deleting
		// it here is what makes a version bump a one-shot invalidation
		// instead of a slow disk leak.
		s.discard(path)
		s.misses.Add(1)
		return false
	}
	if err := json.Unmarshal(e.Payload, out); err != nil {
		s.discard(path)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// discard removes a corrupt or stale entry file, counting an eviction.
func (s *Store) discard(path string) {
	if os.Remove(path) == nil {
		s.evictions.Add(1)
	}
}

// Put stores payload under the key, atomically: the entry is marshalled
// to a temporary file in the destination directory and renamed into
// place, so concurrent readers and writers (including other processes
// sharing the directory) never observe a partial entry. A concurrent Put
// of the same key is harmless — both writers produce identical bytes by
// the determinism contract, and the last rename wins.
func (s *Store) Put(k Key, payload any) error {
	if s == nil {
		return nil
	}
	if !k.valid() {
		return fmt.Errorf("fabric: Put with zero key")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("fabric: marshalling payload: %w", err)
	}
	data, err := json.Marshal(entry{Schema: entrySchema, Key: k.ID, Version: k.Version, Payload: raw})
	if err != nil {
		return fmt.Errorf("fabric: marshalling entry: %w", err)
	}
	dir := filepath.Dir(s.path(k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: closing entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: committing entry: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Stats snapshots the store's cumulative traffic counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
	}
}
