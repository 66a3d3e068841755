package scenario

import (
	"strings"
	"testing"

	"ezflow"
)

// TestParseModeSpellings pins the mode spelling table against the
// controller layer: every plain-802.11 spelling ctl.IsNone accepts is the
// 802.11 mode, and every other mode parses from the name of the
// controller it deploys.
func TestParseModeSpellings(t *testing.T) {
	for _, s := range []string{"", "802.11", "80211", "off", "none", "Plain"} {
		if m, err := ParseMode(s); err != nil || m != ezflow.Mode80211 {
			t.Errorf("ParseMode(%q) = %v, %v; want 802.11", s, m, err)
		}
	}
	for _, m := range []ezflow.Mode{ezflow.ModeEZFlow, ezflow.ModePenalty, ezflow.ModeDiffQ} {
		if got, err := ParseMode(m.ControllerName()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.ControllerName(), got, err, m)
		}
	}
	if _, err := ParseMode("backpressure"); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("ParseMode(backpressure): error %v, want unknown mode", err)
	}
}

// TestControllerField covers the spec's controller selection: valid names
// reach the config, unknown names and mode+controller combinations are
// rejected with actionable errors.
func TestControllerField(t *testing.T) {
	spec, err := Parse([]byte(`{
		"topology": {"kind": "chain", "hops": 4},
		"controller": "backpressure",
		"duration_sec": 30,
		"flows": [{"id": 1, "rate_bps": 2e6}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err := spec.Config(); err != nil || cfg.Controller != "backpressure" {
		t.Errorf("Config() = controller %q, %v; want backpressure", cfg.Controller, err)
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Ctl == nil {
		t.Error("built scenario deployed no controller")
	}

	none, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"controller": "802.11",
		"duration_sec": 1
	}`))
	if err != nil {
		t.Fatalf("controller 802.11 (none): %v", err)
	}
	if sc, err = none.Build(); err != nil {
		t.Fatal(err)
	}
	if sc.Ctl != nil {
		t.Errorf("controller 802.11 deployed %T, want none", sc.Ctl)
	}

	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"controller": "warp-drive"
	}`)); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown controller: got %v, want error listing the registry", err)
	}

	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"mode": "ezflow",
		"controller": "ezflow"
	}`)); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("mode+controller: got %v, want mutual-exclusion error", err)
	}
}
