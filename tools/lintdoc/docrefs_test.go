package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDocRefs runs the doc-reference check over the fixture's
// README.md, docs/guide.md and bench/README.md. Exactly one stale
// reference of each kind may be reported: a link, a repository path, a
// pkg.Ident and a pkg.Type.Method.
func TestCheckDocRefs(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	m, err := load(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDocRefs(root, m)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:4: link target docs/gone.md does not exist",
		"bench/README.md:3: lib.Gone names nothing in package lib",
		"bench/README.md:4: lib.Square.Perimeter names nothing in package lib",
		"docs/guide.md:4: path internal/lib/gone.go does not exist",
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for i, w := range want {
		if !strings.HasSuffix(problems[i], w) {
			t.Errorf("problem %d = %q, want one ending %q", i, problems[i], w)
		}
	}
}
