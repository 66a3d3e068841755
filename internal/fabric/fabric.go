// Package fabric is the campaign-execution fabric: the content-addressed
// result store and the shard bookkeeping that let the repository's
// perfectly deterministic campaigns scale beyond one process and one
// run. Every replication of a campaign is a pure function of its inputs
// — internal/campaign derives each run's seed from (base seed, point
// label, rep) and the simulator guarantees byte-identical results for a
// given (scenario, seed) — so a result computed once is correct forever,
// until the simulator's behaviour itself changes.
//
// The package has two halves. Key is a content address: a SHA-256 hash
// of a canonical JSON rendering of everything that determines a run's
// outcome (the normalized point, the derived seed, the scenario file's
// full content, the effective duration), paired with a code-version
// string that is checked — not hashed — at lookup time, so one version
// bump invalidates every prior entry without orphaning their files.
// Store is a persistent on-disk map from Key to a JSON payload, written
// atomically (temp file + rename in the same directory) so concurrent
// writers — worker subprocesses, parallel campaigns, ezcampaign and
// ezbench runs — can share one directory with no coordination, and read
// tolerantly (a truncated, corrupt, or stale-version entry is a miss that
// deletes the bad file, never an error).
//
// Consumers: campaign.Engine consults the store before every
// replication, and cmd/ezcampaign and cmd/ezbench thread
// -cache/-cache-dir through to it. The determinism tests in
// internal/campaign pin the contract that a warm-cache replay is
// byte-identical to a cold run and performs zero simulations.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Key is the content address of one cached result: a SHA-256 over the
// canonical JSON form of the key material, plus the producing code's
// version string. The version is deliberately kept out of the hash and
// checked against the stored entry at Get time instead: a version bump
// then invalidates (and garbage-collects) stale entries in place rather
// than leaving them stranded under never-again-referenced hashes.
type Key struct {
	// ID is the content hash in hex — the on-disk entry name.
	ID string
	// Version is the code-version string the key was built with.
	Version string
}

// NewKey builds a key from a version string and any JSON-serialisable
// key material. The material must canonically describe everything that
// determines the cached result — two runs whose material marshals
// identically are asserted to produce identical results. Marshalling is
// deterministic for structs (field order) and maps (sorted keys), so the
// same material always yields the same key.
func NewKey(version string, material any) (Key, error) {
	b, err := json.Marshal(material)
	if err != nil {
		return Key{}, fmt.Errorf("fabric: marshalling key material: %w", err)
	}
	sum := sha256.Sum256(b)
	return Key{ID: hex.EncodeToString(sum[:]), Version: version}, nil
}

// valid reports whether the key was produced by NewKey (the zero Key is
// not addressable).
func (k Key) valid() bool { return k.ID != "" }
