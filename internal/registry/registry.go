// Package registry is the name table behind every pluggable subsystem:
// congestion controllers (internal/ctl), routing strategies
// (internal/routing) and mobility models (internal/mobility) each keep one
// Registry of their Info type. Lookups, sorted name lists, CLI usage text
// and the "unknown name" error are written once here, so a scenario file,
// a campaign axis and a command-line flag all reject a bad name with the
// same message.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Registry maps names to entries of one kind. Entries are added at init
// time and only read afterwards, so it needs no locking.
type Registry[T any] struct {
	kind    string
	off     string
	offDoc  string
	entries map[string]entry[T]
}

type entry[T any] struct {
	summary string
	v       T
}

// New returns an empty registry whose errors and panics call its entries
// kind (e.g. "controller"). When off is non-empty, the name lists and
// usage text lead with that spelling, described by offDoc, for the
// subsystem's built-in "nothing selected" choice; it is not an entry.
func New[T any](kind, off, offDoc string) *Registry[T] {
	return &Registry[T]{kind: kind, off: off, offDoc: offDoc, entries: map[string]entry[T]{}}
}

// Add registers v under name with a one-line summary for usage text. It
// panics on an empty or duplicate name: registration bugs must fail at
// init.
func (r *Registry[T]) Add(name, summary string, v T) {
	if name == "" {
		panic(fmt.Sprintf("registry: %s registered with an empty name", r.kind))
	}
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("registry: duplicate %s %q", r.kind, name))
	}
	r.entries[name] = entry[T]{summary: summary, v: v}
}

// ByName looks an entry up by its registered name.
func (r *Registry[T]) ByName(name string) (T, bool) {
	e, ok := r.entries[name]
	return e.v, ok
}

// Lookup is ByName with the shared error for a name nothing registered:
// unknown <kind> "name" (registered: a|b|c).
func (r *Registry[T]) Lookup(name string) (T, error) {
	e, ok := r.entries[name]
	if !ok {
		return e.v, fmt.Errorf("unknown %s %q (registered: %s)", r.kind, name, r.NamesList())
	}
	return e.v, nil
}

// Names returns every registered name, sorted, so usage strings and
// errors enumerate the registry instead of hand-maintained lists.
func (r *Registry[T]) Names() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NamesList renders the accepted names as "a|b|c" for flag usage
// strings, led by the off spelling when the registry has one.
func (r *Registry[T]) NamesList() string {
	names := r.Names()
	if r.off != "" {
		names = append([]string{r.off}, names...)
	}
	return strings.Join(names, "|")
}

// Usage renders one "name  summary" line per accepted name, for CLI help
// text.
func (r *Registry[T]) Usage() string {
	var lines []string
	if r.off != "" {
		lines = append(lines, fmt.Sprintf("  %-12s %s", r.off, r.offDoc))
	}
	for _, n := range r.Names() {
		lines = append(lines, fmt.Sprintf("  %-12s %s", n, r.entries[n].summary))
	}
	return strings.Join(lines, "\n")
}
