// MoveNode correctness: incremental index patches must be
// indistinguishable from a from-scratch rebuild (VerifyIndex is the
// oracle), mid-flight movers must keep carrier-sense accounting
// balanced, and the steady-state move path must not allocate.
package phy

import (
	"math"
	"math/rand"
	"testing"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// TestMoveNodeIncrementalMatchesRebuild drives hundreds of random moves
// (including out-of-extent drifts) interleaved with link-state toggles
// and live traffic, verifying the patched index against the from-scratch
// oracle after every step.
func TestMoveNodeIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pos := diskPositions(60, 3)
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	sts := make([]*Station, len(pos))
	for i, p := range pos {
		sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
	}
	// Build the index with a first transmission.
	f := ch.Pool().Frame()
	f.Type = pkt.FrameData
	f.TxSrc, f.TxDst = 0, 1
	ch.TransmitFrom(sts[0], f)
	for eng.RunStep() {
	}

	extent := 100 * math.Sqrt(60)
	for step := 0; step < 400; step++ {
		id := pkt.NodeID(rng.Intn(len(pos)))
		switch rng.Intn(10) {
		case 0: // long-haul jump, may leave the built grid extent
			ch.MoveNode(id, Position{
				X: (rng.Float64()*4 - 2) * extent,
				Y: (rng.Float64()*4 - 2) * extent,
			})
		case 1: // link-state churn interleaved with movement
			b := pkt.NodeID(rng.Intn(len(pos)))
			if b != id {
				ch.SetLinkDown(id, b, rng.Intn(2) == 0)
				ch.SetLinkLoss(b, id, rng.Float64())
			}
		case 2: // a flight between moves keeps event state live
			src := sts[rng.Intn(len(sts))]
			fr := ch.Pool().Frame()
			fr.Type = pkt.FrameData
			fr.TxSrc = src.id
			fr.TxDst = pkt.NodeID(rng.Intn(len(pos)))
			ch.TransmitFrom(src, fr)
			for eng.RunStep() {
			}
		default: // local wander, the common mobility step
			p := ch.Position(id)
			ch.MoveNode(id, Position{
				X: p.X + rng.NormFloat64()*80,
				Y: p.Y + rng.NormFloat64()*80,
			})
		}
		if err := ch.VerifyIndex(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestMoveNodeBeforeIndexBuilds exercises the pre-index path: moves
// before the first transmission just adopt positions, and the eventual
// build sees the final geometry.
func TestMoveNodeBeforeIndexBuilds(t *testing.T) {
	eng, ch, radios := setup(t, Position{}, Position{X: 200}, Position{X: 1500})
	if !ch.MoveNode(2, Position{X: 400}) {
		t.Fatal("move into decode range should report membership change")
	}
	if ch.MoveNode(2, Position{X: 390}) {
		t.Fatal("move within decode range should not report membership change")
	}
	ch.Transmit(1, frame(1, 2))
	eng.Run(sim.Second)
	if err := ch.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	if len(radios[2].received) != 1 {
		t.Fatalf("moved node should decode the frame, got %d", len(radios[2].received))
	}
}

// TestMoveReceiverOutMidFlight pins the mid-flight rules: a receiver
// that drifts beyond carrier-sense range of the transmitter mid-frame
// loses the reception silently, its carrier goes idle immediately, and
// the transmission's completion leaves the sense accounting balanced.
func TestMoveReceiverOutMidFlight(t *testing.T) {
	eng, ch, radios := setup(t, Position{}, Position{X: 200})
	ch.Transmit(0, frame(0, 1))
	eng.Run(sim.Millisecond) // mid-flight (1028-byte frame ≈ 8.4 ms)
	if !ch.Busy(1) {
		t.Fatal("receiver should sense the flight before moving")
	}
	ch.MoveNode(1, Position{X: 800}) // beyond CSRange(550) of the transmitter
	if ch.Busy(1) {
		t.Fatal("receiver beyond CS range must sense idle")
	}
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("aborted reception must not deliver")
	}
	if got := radios[1].busy; len(got) != 2 || got[0] != true || got[1] != false {
		t.Fatalf("carrier transitions = %v, want [true false]", got)
	}
	if ch.Busy(0) || ch.Busy(1) {
		t.Fatal("sense counts must be balanced after the flight")
	}
	if err := ch.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveReceiverWithinRangeMidFlight: movement that keeps the
// transmitter within CS range preserves the lock and the delivery.
func TestMoveReceiverWithinRangeMidFlight(t *testing.T) {
	eng, ch, radios := setup(t, Position{}, Position{X: 200})
	ch.Transmit(0, frame(0, 1))
	eng.Run(sim.Millisecond)
	ch.MoveNode(1, Position{X: 240})
	eng.Run(sim.Second)
	if len(radios[1].received) != 1 {
		t.Fatalf("reception should survive an in-range move, got %d deliveries", len(radios[1].received))
	}
	if ch.Busy(0) || ch.Busy(1) {
		t.Fatal("sense counts must be balanced after the flight")
	}
}

// TestMoveIntoFlightNoLock: a node that moves into range of an ongoing
// transmission senses it (carrier busy) but never locks on — the
// preamble was missed — so nothing is delivered and accounting stays
// balanced when the flight ends.
func TestMoveIntoFlightNoLock(t *testing.T) {
	eng, ch, radios := setup(t, Position{}, Position{X: 2000})
	ch.Transmit(0, frame(0, 1))
	eng.Run(sim.Millisecond)
	ch.MoveNode(1, Position{X: 200})
	if !ch.Busy(1) {
		t.Fatal("mover inside CS range must sense the flight")
	}
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("a mover must not acquire a lock mid-flight")
	}
	if got := radios[1].busy; len(got) != 2 || got[0] != true || got[1] != false {
		t.Fatalf("carrier transitions = %v, want [true false]", got)
	}
	if ch.Busy(0) || ch.Busy(1) {
		t.Fatal("sense counts must be balanced after the flight")
	}
}

// TestMoveWhileTransmittingPanics pins the contract callers gate on via
// Transmitting.
func TestMoveWhileTransmittingPanics(t *testing.T) {
	eng, ch, _ := setup(t, Position{}, Position{X: 200})
	ch.Transmit(0, frame(0, 1))
	if !ch.Transmitting(0) {
		t.Fatal("node 0 should be transmitting")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MoveNode of a transmitting station must panic")
		}
	}()
	ch.MoveNode(0, Position{X: 50})
	_ = eng
}

// TestMoveNodeReadsLinkStateMaps covers MoveNode's skip of the loss and
// down maps when both are empty: with only one of them set, a node
// moving out of and back into range of its severed or lossy peers must
// carry the link state into the records it recreates, in both
// directions.
func TestMoveNodeReadsLinkStateMaps(t *testing.T) {
	for _, only := range []string{"down", "loss"} {
		t.Run(only, func(t *testing.T) {
			ch, _, a, b := moveBench(200)
			far := Position{X: a.X + 5000, Y: a.Y}
			for _, peer := range []pkt.NodeID{3, 11, 42, 150} {
				if only == "down" {
					ch.SetLinkDown(7, peer, true)
					ch.SetLinkDown(peer, 7, true)
				} else {
					ch.SetLinkLoss(7, peer, 0.25)
					ch.SetLinkLoss(peer, 7, 0.5)
				}
			}
			for _, p := range []Position{far, a, b, far, b} {
				ch.MoveNode(7, p)
				if err := ch.VerifyIndex(); err != nil {
					t.Fatalf("after moving to %v: %v", p, err)
				}
			}
		})
	}
}

// TestMoveNodeSteadyStateAllocs pins the zero-alloc steady state of the
// incremental move path once list capacities have warmed up.
func TestMoveNodeSteadyStateAllocs(t *testing.T) {
	ch, _, a, b := moveBench(200)
	if allocs := testing.AllocsPerRun(100, func() {
		ch.MoveNode(7, a)
		ch.MoveNode(7, b)
	}); allocs != 0 {
		t.Fatalf("steady-state MoveNode allocates %.1f allocs/op, want 0", allocs)
	}
}

// moveBench builds an indexed n-node disk channel and returns it with
// the mover's two oscillation endpoints (≈120 m apart, crossing decode
// and CS boundaries of several neighbors), pre-warmed so the move path
// is in steady state.
func moveBench(n int) (ch *Channel, eng *sim.Engine, a, b Position) {
	pos := diskPositions(n, 1)
	eng = sim.NewEngine(1)
	ch = NewChannel(eng, DefaultConfig())
	sts := make([]*Station, len(pos))
	for i, p := range pos {
		sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
	}
	f := ch.Pool().Frame()
	f.Type = pkt.FrameData
	f.TxSrc, f.TxDst = 0, 1
	ch.TransmitFrom(sts[0], f)
	for eng.RunStep() {
	}
	a = pos[7]
	b = Position{X: a.X + 120, Y: a.Y + 40}
	for i := 0; i < 4; i++ { // warm owned-list capacities along the path
		ch.MoveNode(7, b)
		ch.MoveNode(7, a)
	}
	return ch, eng, a, b
}

// BenchmarkMoveNode compares the incremental patch against the full
// index rebuild it replaces, at the 200-node disk scale: one position
// oscillation per op. The incremental path must be several times faster
// and allocation-free in steady state.
func BenchmarkMoveNode(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		ch, _, p1, p2 := moveBench(200)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				ch.MoveNode(7, p2)
			} else {
				ch.MoveNode(7, p1)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		ch, _, p1, p2 := moveBench(200)
		st := ch.station(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				st.pos = p2
			} else {
				st.pos = p1
			}
			ch.indexed = false
			ch.buildIndex()
		}
	})
}
