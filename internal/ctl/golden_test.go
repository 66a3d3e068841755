package ctl_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
)

// goldenCase is one pinned control-plane configuration.
type goldenCase struct {
	name string
	// set selects and tunes the control plane on a default config.
	set func(cfg *ezflow.Config)
	// flap severs flow 1's middle link from 12 s to 18 s with route
	// repair, so the controller's Extend runs over repair-created queues.
	flap bool
}

// goldenCases covers every way a run selects or tunes its controller:
// each registered name, each legacy Mode, and non-default values of every
// tunable in ctl.Options.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, name := range ctl.Controllers.Names() {
		n := name
		cases = append(cases,
			goldenCase{name: "controller=" + n, set: func(cfg *ezflow.Config) { cfg.Controller = n }},
			goldenCase{name: "controller=" + n + " flap", set: func(cfg *ezflow.Config) { cfg.Controller = n }, flap: true})
	}
	for _, mode := range []ezflow.Mode{ezflow.Mode80211, ezflow.ModeEZFlow, ezflow.ModePenalty, ezflow.ModeDiffQ} {
		m := mode
		cases = append(cases, goldenCase{name: "mode=" + m.String(), set: func(cfg *ezflow.Config) { cfg.Mode = m }})
	}
	return append(cases,
		goldenCase{name: "penalty q=1/32", set: func(cfg *ezflow.Config) {
			cfg.Mode = ezflow.ModePenalty
			cfg.Ctl.PenaltyQ = 1.0 / 32
		}},
		goldenCase{name: "penalty q=1.5 (default)", set: func(cfg *ezflow.Config) {
			cfg.Controller = "penalty"
			cfg.Ctl.PenaltyQ = 1.5
		}},
		goldenCase{name: "ezflow window=25 bmax=10", set: func(cfg *ezflow.Config) {
			cfg.Mode = ezflow.ModeEZFlow
			cfg.Ctl.EZ.CAA.Window, cfg.Ctl.EZ.CAA.BMax = 25, 10
		}},
		goldenCase{name: "ezflow sniff-loss=0.5", set: func(cfg *ezflow.Config) {
			cfg.Controller = "ezflow"
			cfg.Ctl.EZ.SniffLoss = 0.5
		}},
		rtsCase("ezflow"), rtsCase("backpressure"), rtsCase("staticcap"), rtsCase("feedback"),
	)
}

// rtsCase runs the named controller with RTS/CTS on, so the NAV each
// RTS reserves for the coming data frame is pinned too.
func rtsCase(name string) goldenCase {
	return goldenCase{name: name + " rts/cts", set: func(cfg *ezflow.Config) {
		cfg.Controller = name
		cfg.MAC.UseRTSCTS = true
	}}
}

// runGoldenCase runs one case for 30 simulated seconds on the testbed
// (two saturating flows) and fingerprints the result.
func runGoldenCase(t *testing.T, c goldenCase) string {
	t.Helper()
	cfg := ezflow.DefaultConfig()
	cfg.Seed = 11
	cfg.Duration = 30 * ezflow.Second
	c.set(&cfg)
	sc := ezflow.NewTestbed(cfg,
		ezflow.FlowSpec{Flow: 1, RateBps: 2e6},
		ezflow.FlowSpec{Flow: 2, RateBps: 2e6})
	if c.flap {
		a, b := dynamics.MiddleLink(sc.Mesh, 1)
		if err := sc.AddDynamics(&dynamics.Script{Events: dynamics.Flap(a, b, 12*ezflow.Second, 18*ezflow.Second, true)}); err != nil {
			t.Fatal(err)
		}
	}
	return summarize(sc.Run())
}

// TestGoldenControllers pins the output of every control-plane
// configuration: any refactor of how a controller is selected, tuned or
// deployed must leave testdata/controllers.golden byte-identical.
// EZFLOW_UPDATE_GOLDEN=1 rewrites it.
func TestGoldenControllers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var b strings.Builder
	for _, c := range goldenCases() {
		fmt.Fprintf(&b, "== %s\n%s", c.name, runGoldenCase(t, c))
	}
	got := []byte(b.String())
	path := filepath.Join("testdata", "controllers.golden")
	if os.Getenv("EZFLOW_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("updated controller golden")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("control-plane output diverges from %s:\n%s", path, got)
	}
}
