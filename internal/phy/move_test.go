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

// TestMoveNodeTickMatchesRebuild drives the mobility engine's pattern on
// a 200-node disk: every station takes one 1.5-m waypoint step per tick,
// with occasional jumps outside the grid's extent, link-state churn,
// flights left on the air across the moves, and a mid-run AddNode that
// forces an index rebuild and then a lazy twin rebuild. The patched
// index, twins included, must match the oracle after every tick.
func TestMoveNodeTickMatchesRebuild(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(17))
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	sts := make([]*Station, n)
	for i, p := range diskPositions(n, 5) {
		sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
	}
	send := func(src *Station) { // ≈8.4 ms on the air
		ch.TransmitFrom(src, frame(src.id, pkt.NodeID(rng.Intn(n))))
	}
	send(sts[0])
	for eng.RunStep() {
	}
	w := newWaypoints(n+1, 1.5, 23) // one walk more, for the late node
	extent := 100 * math.Sqrt(n)

	deferred := 0
	for tick := 0; tick < 120; tick++ {
		if tick == 60 {
			// Drain the air first: a station added mid-flight would owe
			// the flights' finish a carrier-sense decrement it never got.
			for eng.RunStep() {
			}
			late := ch.AddNode(n, Position{X: 150, Y: -90}, nil)
			sts = append(sts, late)
			ch.MoveNode(n, Position{X: 160, Y: -95}) // before the rebuild
			send(late)
			if !ch.indexed || ch.twinned {
				t.Fatal("the flight after AddNode must rebuild the index but not the twins")
			}
		}
		for k := 0; k < 4; k++ { // link-state churn between ticks
			a, b := pkt.NodeID(rng.Intn(len(sts))), pkt.NodeID(rng.Intn(len(sts)))
			if a != b {
				ch.SetLinkDown(a, b, rng.Intn(3) == 0)
				ch.SetLinkLoss(b, a, rng.Float64())
			}
		}
		for k := 0; k < 3; k++ { // flights still on the air during the moves
			if src := sts[rng.Intn(len(sts))]; !ch.Transmitting(src.id) {
				send(src)
			}
		}
		eng.Run(eng.Now() + 2*sim.Millisecond)
		for _, st := range sts {
			if ch.Transmitting(st.id) {
				deferred++
				continue // as the mobility engine defers it
			}
			p := w.step(int(st.id), st.pos)
			if rng.Intn(500) == 0 {
				p = Position{X: (rng.Float64()*4 - 2) * extent, Y: (rng.Float64()*4 - 2) * extent}
			}
			ch.MoveNode(st.id, p)
		}
		if !ch.twinned {
			t.Fatalf("tick %d: MoveNode left the twins unbuilt", tick)
		}
		if err := ch.VerifyIndex(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	if deferred == 0 {
		t.Fatal("no station was ever caught mid-frame: the flights never overlapped a tick")
	}
	for eng.RunStep() {
	}
	for _, st := range sts {
		if ch.Busy(st.id) {
			t.Fatalf("station %v senses a busy medium after the last flight", st.id)
		}
	}
}

// TestMoveNodeFirstMoveIsFarJump: a station whose first move after an
// index build takes it out of range of its many arena-packed neighbors
// must detach its list with room for the records it still holds.
func TestMoveNodeFirstMoveIsFarJump(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	for i, p := range diskPositions(200, 1) {
		ch.AddNode(pkt.NodeID(i), p, nil)
	}
	transmit(ch, 0, frame(0, 1))
	for eng.RunStep() {
	}
	if len(ch.station(9).nbrs) <= 8 {
		t.Fatal("the mover needs more neighbors than a fresh list's headroom")
	}
	ch.MoveNode(9, Position{X: 1e6, Y: 1e6})
	if err := ch.VerifyIndex(); err != nil {
		t.Fatal(err)
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
	transmit(ch, 1, frame(1, 2))
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
	transmit(ch, 0, frame(0, 1))
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
	transmit(ch, 0, frame(0, 1))
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
	transmit(ch, 0, frame(0, 1))
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
	transmit(ch, 0, frame(0, 1))
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

// waypoints is a random-waypoint walk for the stations of a disk laid out
// by diskPositions: each heads for its own target in the disk at speed
// metres per tick and draws a fresh target on arrival.
type waypoints struct {
	rng    *rand.Rand
	radius float64
	speed  float64
	target []Position
}

func newWaypoints(n int, speed float64, seed int64) *waypoints {
	w := &waypoints{
		rng:    rand.New(rand.NewSource(seed)),
		radius: 100 * math.Sqrt(float64(n)),
		speed:  speed,
		target: make([]Position, n),
	}
	for i := range w.target {
		w.target[i] = w.draw()
	}
	return w
}

func (w *waypoints) draw() Position {
	r := w.radius * math.Sqrt(w.rng.Float64())
	theta := 2 * math.Pi * w.rng.Float64()
	return Position{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
}

// step returns where station i, now at p, stands one tick later.
func (w *waypoints) step(i int, p Position) Position {
	tgt := w.target[i]
	d := p.Dist(tgt)
	if d <= w.speed {
		w.target[i] = w.draw()
		return tgt
	}
	f := w.speed / d
	return Position{X: p.X + (tgt.X-p.X)*f, Y: p.Y + (tgt.Y-p.Y)*f}
}

// BenchmarkMoveNode compares the incremental patch against the full
// index rebuild it replaces, at the 200-node disk scale. incremental and
// rebuild do one position oscillation of one station per op, so the
// peers it patches stay cache-hot; tick moves every station one 1.5-m
// waypoint step per op (the mobile workload's 3 m/s at 0.5-s ticks),
// which touches every list once, as a mobility tick does. The
// incremental path must be several times faster than the rebuild and
// allocation-free in steady state.
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
	b.Run("tick", func(b *testing.B) {
		ch, _, _, _ := moveBench(200)
		w := newWaypoints(200, 1.5, 1)
		tick := func() {
			for _, st := range ch.order {
				ch.MoveNode(st.id, w.step(int(st.id), st.pos))
			}
		}
		for range 200 { // warm owned-list capacities (growth is rare afterwards)
			tick()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
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
