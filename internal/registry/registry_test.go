package registry

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	r := New[int]("widget", "", "")
	r.Add("beta", "the second", 2)
	r.Add("alpha", "the first", 1)
	if v, ok := r.ByName("alpha"); !ok || v != 1 {
		t.Errorf("ByName(alpha) = %d, %v", v, ok)
	}
	if _, ok := r.ByName("gamma"); ok {
		t.Error("ByName found an unregistered name")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Errorf("Names() = %v, want sorted", got)
	}
	if got := r.NamesList(); got != "alpha|beta" {
		t.Errorf("NamesList() = %q", got)
	}
	if _, err := r.Lookup("gamma"); err == nil || err.Error() != `unknown widget "gamma" (registered: alpha|beta)` {
		t.Errorf("Lookup(gamma) error = %v", err)
	}
	if v, err := r.Lookup("beta"); err != nil || v != 2 {
		t.Errorf("Lookup(beta) = %d, %v", v, err)
	}
	if u := r.Usage(); !strings.HasPrefix(u, "  alpha") || !strings.Contains(u, "the second") {
		t.Errorf("Usage() = %q", u)
	}
}

// TestOffSpelling pins that a registry's off spelling leads the name
// lists and usage text without becoming an entry.
func TestOffSpelling(t *testing.T) {
	r := New[string]("model", "off", "nothing moves")
	r.Add("walk", "walks", "w")
	if got := r.NamesList(); got != "off|walk" {
		t.Errorf("NamesList() = %q", got)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"walk"}) {
		t.Errorf("Names() = %v, want entries only", got)
	}
	if _, ok := r.ByName("off"); ok {
		t.Error("the off spelling resolved as an entry")
	}
	if u := r.Usage(); !strings.HasPrefix(u, "  off") || !strings.Contains(u, "nothing moves") {
		t.Errorf("Usage() = %q", u)
	}
}

func TestAddRejectsBadNames(t *testing.T) {
	r := New[int]("widget", "", "")
	r.Add("a", "", 1)
	for name, add := range map[string]func(){
		"empty":     func() { r.Add("", "", 2) },
		"duplicate": func() { r.Add("a", "", 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s name: Add did not panic", name)
				}
			}()
			add()
		}()
	}
}
