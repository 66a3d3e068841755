package ctl_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/mac"
	"ezflow/internal/pkt"
)

// TestRegistry checks that every shipped controller is registered, that
// Names is sorted, and that lookups behave.
func TestRegistry(t *testing.T) {
	names := ctl.Controllers.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"backpressure", "diffq", "ezflow", "feedback", "penalty", "staticcap"} {
		if _, ok := ctl.Controllers.ByName(want); !ok {
			t.Errorf("controller %q not registered (have %v)", want, names)
		}
	}
	if _, ok := ctl.Controllers.ByName("no-such-controller"); ok {
		t.Error("ByName accepted an unknown name")
	}
	if u := ctl.Controllers.Usage(); !strings.Contains(u, "backpressure") || !strings.Contains(u, "ezflow") {
		t.Errorf("Usage() missing controllers:\n%s", u)
	}
}

// depOf unwraps a controller instance to its generic hook deployment
// (backpressure and feedback wrap it with node stamps / pred refresh).
func depOf(t testing.TB, inst ctl.Instance) *ctl.Deployment {
	t.Helper()
	switch v := inst.(type) {
	case *ctl.Deployment:
		return v
	case *ctl.BPInstance:
		return v.Deployment
	case *ctl.FBInstance:
		return v.Deployment
	}
	t.Fatalf("instance %T carries no generic deployment", inst)
	return nil
}

// chainResult runs a 4-hop chain for 30 simulated seconds with the given
// controller name.
func chainResult(t *testing.T, name string, seed int64) *ezflow.Result {
	t.Helper()
	cfg := ezflow.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 30 * ezflow.Second
	cfg.Controller = name
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	return sc.Run()
}

// summarize renders the deterministic fingerprint of a run: per-flow
// delivery and throughput, sorted mean queues, final windows, overhead.
func summarize(res *ezflow.Result) string {
	var b strings.Builder
	var flows []ezflow.FlowID
	for f := range res.Flows {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		fr := res.Flows[f]
		fmt.Fprintf(&b, "%v: %d %v %v\n", f, fr.Delivered, fr.MeanThroughputKbps, fr.MeanDelaySec)
	}
	var nodes []ezflow.NodeID
	for n := range res.MeanQueue {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		fmt.Fprintf(&b, "q%v=%v\n", n, res.MeanQueue[n])
	}
	var keys []string
	for k := range res.FinalCW {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "cw %s=%d\n", k, res.FinalCW[k])
	}
	fmt.Fprintf(&b, "overhead=%d\n", res.OverheadBytes)
	return b.String()
}

// TestControllerDeterminism pins every registry controller to identical
// output across repeated runs with the same seed.
func TestControllerDeterminism(t *testing.T) {
	for _, name := range ctl.Controllers.Names() {
		a := summarize(chainResult(t, name, 7))
		b := summarize(chainResult(t, name, 7))
		if a != b {
			t.Errorf("%s: two identical runs diverged:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// TestStaticcapSetsWindows checks the degenerate control: every relay
// queue carries the fixed window, untouched for the whole run.
func TestStaticcapSetsWindows(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 10 * ezflow.Second
	cfg.Controller = "staticcap"
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	dep, ok := sc.Ctl.(*ctl.Deployment)
	if !ok {
		t.Fatalf("staticcap instance is %T, want *ctl.Deployment", sc.Ctl)
	}
	if len(dep.Relays) == 0 {
		t.Fatal("no relays attached")
	}
	sc.Run()
	for _, r := range dep.Relays {
		if got := r.Caps.Window(); got != ctl.DefaultStaticWindow {
			t.Errorf("relay %v->%v window = %d, want %d", r.Node, r.Successor, got, ctl.DefaultStaticWindow)
		}
	}
	if sc.Ctl.OverheadBytes() != 0 {
		t.Errorf("staticcap reported overhead %d, want 0", sc.Ctl.OverheadBytes())
	}
}

// TestBackpressureSignals checks that the queue-differential controller
// really does message passing: frames carry the BP header (charged on the
// air) and the windows adapt away from the defaults.
func TestBackpressureSignals(t *testing.T) {
	res := chainResult(t, "backpressure", 1)
	if res.OverheadBytes == 0 {
		t.Error("backpressure put no control bytes on the air")
	}
	if res.Flows[1].Delivered == 0 {
		t.Error("no packets delivered")
	}
	// Advertisement is node-wide: every data frame on every hop carries
	// the header — including the last relay's, whose queue is not window-
	// controlled but whose backlog its upstream relay steers by. Each
	// delivered packet crossed all 4 hops at least once, so the stamped
	// bytes must cover 4 stamps per delivery; 3 hops' worth would mean
	// the final relay went silent again (the blind-spot regression).
	if min := uint64(res.Flows[1].Delivered) * 4 * pkt.BPHeaderBytes; res.OverheadBytes < min {
		t.Errorf("overhead %d B < %d B: some hop is not advertising its backlog", res.OverheadBytes, min)
	}
}

// TestFeedbackSignals checks the explicit-feedback controller: control
// frames consume airtime (overhead counted) and the upstream admission
// window moves off the 802.11 default.
func TestFeedbackSignals(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 30 * ezflow.Second
	cfg.Controller = "feedback"
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	dep := depOf(t, sc.Ctl)
	res := sc.Run()
	if res.OverheadBytes == 0 {
		t.Error("feedback sent no control frames")
	}
	moved := false
	for _, r := range dep.Relays {
		if r.Caps.Window() != mac.DefaultCWmin {
			moved = true
		}
	}
	if !moved {
		t.Error("no admission window ever moved off the 802.11 default")
	}
}

// TestControlQueuesNotControlled pins the recursion guard: the feedback
// controller's own control queues never get a controller attached, even
// though their next hop is a relay.
func TestControlQueuesNotControlled(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 5 * ezflow.Second
	cfg.Controller = "feedback"
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	dep := depOf(t, sc.Ctl)
	before := len(dep.Relays)
	sc.Run()
	// Re-extend after the run: control queues now exist; none may be
	// picked up as a relay queue.
	sc.Ctl.Extend(sc.Mesh)
	if after := len(dep.Relays); after != before {
		t.Errorf("Extend attached %d controller(s) to control queues", after-before)
	}
}

// TestModeWrappers pins the satellite contract: the legacy Mode values
// are thin wrappers over the registry, producing identical output to the
// explicit controller names.
func TestModeWrappers(t *testing.T) {
	cases := []struct {
		mode ezflow.Mode
		name string
	}{
		{ezflow.ModeEZFlow, "ezflow"},
		{ezflow.ModePenalty, "penalty"},
		{ezflow.ModeDiffQ, "diffq"},
	}
	for _, c := range cases {
		if got := c.mode.ControllerName(); got != c.name {
			t.Errorf("%v.ControllerName() = %q, want %q", c.mode, got, c.name)
		}
		run := func(useMode bool) string {
			cfg := ezflow.DefaultConfig()
			cfg.Seed = 3
			cfg.Duration = 20 * ezflow.Second
			if useMode {
				cfg.Mode = c.mode
			} else {
				cfg.Controller = c.name
			}
			sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
			return summarize(sc.Run())
		}
		if a, b := run(true), run(false); a != b {
			t.Errorf("%v: Mode and Controller %q runs diverge:\n%s\nvs\n%s", c.mode, c.name, a, b)
		}
	}
}

// TestNoneSpellingsDeployNothing pins that every ctl.IsNone spelling of
// Config.Controller runs plain 802.11, even over a Mode that names a
// controller.
func TestNoneSpellingsDeployNothing(t *testing.T) {
	plain := summarize(chainResult(t, "", 7))
	for _, name := range []string{"802.11", "80211", "off", "none", "Plain"} {
		cfg := ezflow.DefaultConfig()
		cfg.Seed = 7
		cfg.Duration = 30 * ezflow.Second
		cfg.Mode = ezflow.ModeEZFlow
		cfg.Controller = name
		sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
		if sc.Ctl != nil {
			t.Errorf("%q deployed %T", name, sc.Ctl)
		}
		if got := summarize(sc.Run()); got != plain {
			t.Errorf("%q: run differs from plain 802.11:\n%s\nvs\n%s", name, got, plain)
		}
	}
}

// recordingCtl counts hook invocations, validating the deployment plumbing
// end to end through a real scenario.
type recordingCtl struct {
	ctl.NopHooks
	attach, enq, deq, tx, over, tick int
}

func (c *recordingCtl) Name() string                                       { return "recording" }
func (c *recordingCtl) Attach(*ctl.Relay)                                  { c.attach++ }
func (c *recordingCtl) OnEnqueue(*ctl.Relay, *pkt.Packet)                  { c.enq++ }
func (c *recordingCtl) OnDequeue(*ctl.Relay, *pkt.Packet)                  { c.deq++ }
func (c *recordingCtl) OnTransmit(*ctl.Relay, *pkt.Frame)                  { c.tx++ }
func (c *recordingCtl) OnOverhear(*ctl.Relay, *pkt.Frame, pkt.CaptureInfo) { c.over++ }
func (c *recordingCtl) OnTick(*ctl.Relay)                                  { c.tick++ }

// TestDeploymentHooks wires a recording controller over a plain scenario
// and checks every hook fires.
func TestDeploymentHooks(t *testing.T) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 10 * ezflow.Second
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	rec := &recordingCtl{}
	dep := ctl.Deploy(sc.Mesh, rec, 1*ezflow.Second)
	// A 4-hop chain (N0..N4) controls the queues whose next hop is a
	// relay: N0's source queue toward N1, and the forwarding queues
	// N1->N2 and N2->N3. N3 drains into the destination, so its queue
	// stays uncontrolled.
	if got := len(dep.Relays); got != 3 {
		t.Fatalf("attached %d relays, want 3", got)
	}
	sc.Run()
	if rec.attach != len(dep.Relays) {
		t.Errorf("attach = %d, want %d", rec.attach, len(dep.Relays))
	}
	for name, n := range map[string]int{
		"enqueue": rec.enq, "dequeue": rec.deq, "transmit": rec.tx,
		"overhear": rec.over, "tick": rec.tick,
	} {
		if n == 0 {
			t.Errorf("hook %s never fired", name)
		}
	}
	if rec.deq > rec.enq {
		t.Errorf("dequeues (%d) exceed enqueues (%d)", rec.deq, rec.enq)
	}
}
