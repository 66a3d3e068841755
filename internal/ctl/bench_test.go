package ctl_test

import (
	"testing"

	"ezflow"
	"ezflow/internal/ctl"
	ez "ezflow/internal/ezflow"
	"ezflow/internal/pkt"
)

// hotSetup builds a controlled chain scenario and returns the deployment
// plus a middle relay, leaving the scenario un-run so hooks can be driven
// directly.
func hotSetup(b *testing.B, name string) (*ctl.Deployment, *ctl.Relay) {
	b.Helper()
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 5 * ezflow.Second
	cfg.Controller = name
	sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	dep := depOf(b, sc.Ctl)
	if len(dep.Relays) < 2 {
		b.Fatalf("%s attached %d relays", name, len(dep.Relays))
	}
	return dep, dep.Relays[1]
}

// BenchmarkCtlOnOverhear drives the backpressure controller's overhear
// path — a stamped data frame from the successor — through the Controller
// interface. It must not allocate: the bench gate pins allocs/op at zero.
func BenchmarkCtlOnOverhear(b *testing.B) {
	dep, r := hotSetup(b, "backpressure")
	p := pkt.NewPacket(1, 42, r.Node, 99, 1028, 0)
	f := &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Successor, TxDst: 99, Payload: p, HasBP: true, BPLen: 7}
	ci := pkt.CaptureInfo{Listener: r.Node, OnAir: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.BPLen = i & 15
		dep.Ctrl.OnOverhear(r, f, ci)
	}
}

// BenchmarkCtlOnDequeue drives the backpressure controller's dequeue
// retune. Zero allocs/op, pinned by the bench gate.
func BenchmarkCtlOnDequeue(b *testing.B) {
	dep, r := hotSetup(b, "backpressure")
	p := pkt.NewPacket(1, 42, r.Node, 99, 1028, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Ctrl.OnDequeue(r, p)
	}
}

// BenchmarkCtlFeedbackOnOverhear drives the feedback controller's
// overhear path with a rate-feedback control frame from the successor.
// Zero allocs/op, pinned by the bench gate.
func BenchmarkCtlFeedbackOnOverhear(b *testing.B) {
	dep, r := hotSetup(b, "feedback")
	p := pkt.NewPacket(ctl.FeedbackFlow, 3<<16|64, r.Successor, r.Node, 16, 0)
	f := &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Successor, TxDst: r.Node, Payload: p}
	ci := pkt.CaptureInfo{Listener: r.Node, OnAir: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Ctrl.OnOverhear(r, f, ci)
	}
}

// BenchmarkCtlEZFlowOnOverhear drives the ezflow controller's overhear
// path: the successor forwarding a packet the relay sent, so every call
// runs the BOE match and feeds the CAA a sample. Zero allocs/op, pinned
// by the bench gate.
func BenchmarkCtlEZFlowOnOverhear(b *testing.B) {
	dep, r := hotSetup(b, "ezflow")
	p := pkt.NewPacket(1, 42, r.Node, 99, 1028, 0)
	dep.Ctrl.OnTransmit(r, &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Node, TxDst: r.Successor, Payload: p})
	f := &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Successor, TxDst: 99, Payload: p}
	ci := pkt.CaptureInfo{Listener: r.Node, OnAir: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Ctrl.OnOverhear(r, f, ci)
	}
}

// TestHotHooksDoNotAllocate is the in-suite version of the bench-gate
// zero-alloc pins, so `go test` alone catches an allocation sneaking into
// the controller hot path.
func TestHotHooksDoNotAllocate(t *testing.T) {
	for _, name := range []string{"backpressure", "ezflow", "feedback", "staticcap"} {
		cfg := ezflow.DefaultConfig()
		cfg.Duration = 5 * ezflow.Second
		cfg.Controller = name
		sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
		dep := depOf(t, sc.Ctl)
		r := dep.Relays[1]
		p := pkt.NewPacket(1, 42, r.Node, 99, 1028, 0)
		f := &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Successor, TxDst: 99, Payload: p, HasBP: true, BPLen: 3}
		out := &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Node, TxDst: r.Successor, Payload: p}
		ci := pkt.CaptureInfo{Listener: r.Node, OnAir: true}
		hooks := func() {
			dep.Ctrl.OnTransmit(r, out)
			dep.Ctrl.OnOverhear(r, f, ci)
			dep.Ctrl.OnDequeue(r, p)
			dep.Ctrl.OnTransmit(r, f)
		}
		// Fill EZ-Flow's send history and sample window first: a ring
		// or window still growing is set-up, not the steady state.
		for i := 0; i < 2*ez.HistorySize; i++ {
			hooks()
		}
		if n := testing.AllocsPerRun(200, hooks); n != 0 {
			t.Errorf("%s: hot hooks allocate %.1f per call, want 0", name, n)
		}
	}
}
