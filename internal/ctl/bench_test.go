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
	p := pkt.NewPool().Packet(1, 42, r.Node, 99, 1028, 0)
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
	p := pkt.NewPool().Packet(1, 42, r.Node, 99, 1028, 0)
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
	p := pkt.NewPool().Packet(ctl.FeedbackFlow, 3<<16|64, r.Successor, r.Node, 16, 0)
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
	p := pkt.NewPool().Packet(1, 42, r.Node, 99, 1028, 0)
	dep.Ctrl.OnTransmit(r, &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Node, TxDst: r.Successor, Payload: p})
	f := &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Successor, TxDst: 99, Payload: p}
	ci := pkt.CaptureInfo{Listener: r.Node, OnAir: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Ctrl.OnOverhear(r, f, ci)
	}
}

// BenchmarkCtlEZFlowOnTransmit drives the ezflow controller's send
// path: every call records an identifier the BOE's history no longer
// holds, the steady state of a relay forwarding a long flow. Zero
// allocs/op, pinned by the bench gate.
func BenchmarkCtlEZFlowOnTransmit(b *testing.B) {
	dep, r := hotSetup(b, "ezflow")
	// 4×HistorySize distinct identifiers: each is evicted before it
	// comes round again.
	out := make([]*pkt.Frame, 4*ez.HistorySize)
	for i := range out {
		p := pkt.NewPool().Packet(1, uint64(i+1), r.Node, 99, 1028, 0)
		out[i] = &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Node, TxDst: r.Successor, Payload: p}
	}
	for _, f := range out {
		dep.Ctrl.OnTransmit(r, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Ctrl.OnTransmit(r, out[i%len(out)])
	}
}

// hotFrames is one packet's pass through a relay's hot hooks: sent to
// the successor, overheard as the successor forwards it, and dequeued.
type hotFrames struct {
	p        *pkt.Packet
	out, fwd *pkt.Frame
}

// TestHotHooksDoNotAllocate is the in-suite version of the bench-gate
// zero-alloc pins, so `go test` alone catches an allocation sneaking into
// the controller hot path. The measured calls carry identifiers never
// seen during warm-up, as a relay's steady state does: a history that
// grows per new identifier allocates here.
func TestHotHooksDoNotAllocate(t *testing.T) {
	const warm, runs = 2 * ez.HistorySize, 200
	for _, name := range []string{"backpressure", "ezflow", "feedback", "staticcap"} {
		cfg := ezflow.DefaultConfig()
		cfg.Duration = 5 * ezflow.Second
		cfg.Controller = name
		sc := ezflow.NewChain(4, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
		dep := depOf(t, sc.Ctl)
		r := dep.Relays[1]
		// Built up front, so the measured calls allocate nothing of
		// their own: warm-up packets first, then the measured ones
		// (AllocsPerRun makes one extra, unmeasured call).
		seen := map[uint16]bool{}
		var hot []hotFrames
		for seq := uint64(1); len(hot) < warm+runs+1; seq++ {
			p := pkt.NewPool().Packet(1, seq, r.Node, 99, 1028, 0)
			id := p.Checksum16()
			if len(hot) >= warm && seen[id] {
				continue
			}
			seen[id] = true
			hot = append(hot, hotFrames{
				p:   p,
				out: &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Node, TxDst: r.Successor, Payload: p},
				fwd: &pkt.Frame{Type: pkt.FrameData, TxSrc: r.Successor, TxDst: 99, Payload: p, HasBP: true, BPLen: 3},
			})
		}
		ci := pkt.CaptureInfo{Listener: r.Node, OnAir: true}
		next := 0
		hooks := func() {
			h := hot[next]
			next++
			dep.Ctrl.OnTransmit(r, h.out)
			dep.Ctrl.OnOverhear(r, h.fwd, ci)
			dep.Ctrl.OnDequeue(r, h.p)
			dep.Ctrl.OnTransmit(r, h.fwd)
		}
		// Fill EZ-Flow's send history and sample window first: a ring
		// or window still growing is set-up, not the steady state.
		for range warm {
			hooks()
		}
		if n := testing.AllocsPerRun(runs, hooks); n != 0 {
			t.Errorf("%s: hot hooks allocate %.1f per call over new identifiers, want 0", name, n)
		}
	}
}
