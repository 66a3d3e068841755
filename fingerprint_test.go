package ezflow

import (
	"testing"

	"ezflow/internal/mobility"
)

// TestEventOrderFingerprint pins how many events short runs of each
// benchmark workload's topologies fire, and the engine's fingerprint of
// their (time, sequence) keys: the 4-hop chain, Scenarios 1 and 2 and
// the testbed under 802.11 and EZ-flow, a 200-node random disk, and a
// 200-node waypoint disk serving on/off downlink clients. The outputs
// the goldens pin cannot see two same-instant events swap; the
// fingerprint can. A change that claims to leave every event and its
// order alone passes with the pins untouched; one that adds, drops or
// reorders events re-pins them and says why, like a golden.
func TestEventOrderFingerprint(t *testing.T) {
	type pin struct{ fired, fingerprint uint64 }
	want := map[string]pin{
		"chain4/802.11":     {59189, 0xf0aa943ec34ffba6},
		"scenario1/802.11":  {97647, 0x0b3d1f88efc73b4a},
		"scenario2/802.11":  {225896, 0x1d2ffc6cc779d33a},
		"testbed/802.11":    {105898, 0xc741156c572b1ae2},
		"chain4/EZ-flow":    {59087, 0xc81f3c31ff0ed147},
		"scenario1/EZ-flow": {99652, 0xb50e7d35b187095a},
		"scenario2/EZ-flow": {226752, 0xa969f3ca82e76eb1},
		"testbed/EZ-flow":   {102198, 0x50443f847c441368},
		"disk200":           {7946, 0x8cb31b07b3e4370c},
		"mobile200":         {51681, 0xc9fb1c0fe21690f0},
	}
	cfg := func(mode Mode, seed int64, dur Time) Config {
		c := DefaultConfig()
		c.Mode, c.Seed, c.Duration = mode, seed, dur
		return c
	}
	// saturating is one 2 Mb/s CBR source per flow, all from the start.
	saturating := func(ids ...FlowID) []FlowSpec {
		var fs []FlowSpec
		for _, id := range ids {
			fs = append(fs, FlowSpec{Flow: id, RateBps: 2e6})
		}
		return fs
	}
	runs := map[string]func() *Scenario{
		"disk200": func() *Scenario { return NewRandom(200, 0, cfg(ModeEZFlow, 11, 5*Second)) },
		"mobile200": func() *Scenario {
			c := cfg(ModeEZFlow, 13, 20*Second)
			c.Mobility = &mobility.Config{
				Model:   "waypoint",
				Opts:    mobility.Options{SpeedMps: 3, PauseSec: 2},
				TickSec: 0.5,
				Seed:    5,
			}
			c.Workload = &WorkloadSpec{Clients: 16, OnMeanSec: 5, OffMeanSec: 5}
			return NewRandom(200, 0, c)
		},
	}
	for _, mode := range []Mode{Mode80211, ModeEZFlow} {
		c := cfg(mode, 7, 60*Second)
		runs["chain4/"+mode.String()] = func() *Scenario { return NewChain(4, c, saturating(1)...) }
		runs["scenario1/"+mode.String()] = func() *Scenario { return NewScenario1(c, saturating(1, 2)...) }
		runs["scenario2/"+mode.String()] = func() *Scenario { return NewScenario2(c, saturating(1, 2, 3)...) }
		runs["testbed/"+mode.String()] = func() *Scenario { return NewTestbed(c, saturating(1, 2)...) }
	}
	if len(runs) != len(want) {
		t.Fatalf("%d runs for %d pins", len(runs), len(want))
	}
	for name, w := range want {
		t.Run(name, func(t *testing.T) {
			sc := runs[name]()
			sc.Run()
			if got := (pin{sc.Eng.Fired(), sc.Eng.Fingerprint()}); got != w {
				t.Errorf("fired %d, fingerprint %#x; want %d, %#x", got.fired, got.fingerprint, w.fired, w.fingerprint)
			}
		})
	}
}
