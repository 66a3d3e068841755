package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckUnused runs the unused-export check over the two-module fixture
// in testdata/fixture. Exactly the dead exports of the root package and of
// internal/lib, the export only a test calls and the allowlist entry that
// names nothing may be reported; the interface implementation, the Unwrap
// method, the allowlisted oracle and the exports only the second module
// uses must pass.
func TestCheckUnused(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	allow := map[string]string{
		"internal/lib.Oracle": "test oracle",
		"internal/lib.Gone":   "names an identifier that no longer exists",
	}
	m, err := load(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkUnused(m, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"exported fixture.Unused has no use outside tests",
		"exported internal/lib.Dead has no use outside tests",
		"exported internal/lib.TestOnly has no use outside tests",
		"allowlist entry internal/lib.Gone names no identifier",
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for _, w := range want {
		found := false
		for _, p := range problems {
			found = found || strings.Contains(p, w)
		}
		if !found {
			t.Errorf("no problem reports %q; got:\n%s", w, strings.Join(problems, "\n"))
		}
	}
}
