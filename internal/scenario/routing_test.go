package scenario

import (
	"strings"
	"testing"
)

// TestRoutingField covers the spec's routing selection: valid names reach
// the config and survive a build, unknown names are rejected with the
// registry listing, and the strict decoder rejects misspelled keys.
func TestRoutingField(t *testing.T) {
	spec, err := Parse([]byte(`{
		"topology": {"kind": "random", "nodes": 16, "edge_loss": 0.4},
		"routing": "etx",
		"duration_sec": 30,
		"flows": [{"id": 1, "rate_bps": 4e5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err := spec.Config(); err != nil || cfg.Routing != "etx" {
		t.Errorf("Config() = routing %q, %v; want etx", cfg.Routing, err)
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Mesh.Route(1)) < 2 {
		t.Errorf("built scenario has no installed route: %v", sc.Mesh.Route(1))
	}

	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"routing": "warp-drive"
	}`)); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown routing: got %v, want error listing the registry", err)
	}

	// Strict decoding: a typo'd key must fail loudly, not silently fall
	// back to the default strategy.
	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"routeing": "etx"
	}`)); err == nil {
		t.Error("misspelled routing key accepted silently")
	}
}

// TestEdgeLossValidation pins the topology field's guard rails: only the
// random topology takes it, and only probabilities in [0,1).
func TestEdgeLossValidation(t *testing.T) {
	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain", "hops": 4, "edge_loss": 0.3}
	}`)); err == nil || !strings.Contains(err.Error(), "edge_loss") {
		t.Errorf("edge_loss on chain: got %v, want rejection", err)
	}
	for _, bad := range []string{"-0.1", "1", "1.5"} {
		if _, err := Parse([]byte(`{
			"topology": {"kind": "random", "nodes": 12, "edge_loss": ` + bad + `}
		}`)); err == nil {
			t.Errorf("edge_loss %s accepted", bad)
		}
	}
	if _, err := Parse([]byte(`{
		"topology": {"kind": "random", "nodes": 12, "edge_loss": 0.9}
	}`)); err != nil {
		t.Errorf("valid edge_loss rejected: %v", err)
	}
}
