// MoveNodes correctness: a batch must leave the index equal to a
// from-scratch recomputation (VerifyIndex is the oracle) and must be
// indistinguishable from applying its moves one at a time — the same
// change report, the same receiver state and the same CarrierBusy
// callbacks — and a steady-state tick must not allocate.
package phy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// logRadio appends every indication its station gets to a log shared by
// all stations of one channel, so the log holds their global order.
type logRadio struct {
	id  pkt.NodeID
	log *[]string
}

func (r *logRadio) CarrierBusy(b bool) { *r.log = append(*r.log, fmt.Sprintf("%v busy=%v", r.id, b)) }
func (r *logRadio) Receive(f *pkt.Frame) {
	*r.log = append(*r.log, fmt.Sprintf("%v rx from %v", r.id, f.TxSrc))
}
func (r *logRadio) ReceiveError() { *r.log = append(*r.log, fmt.Sprintf("%v rx error", r.id)) }
func (r *logRadio) Overhear(f *pkt.Frame, _ pkt.CaptureInfo) {
	*r.log = append(*r.log, fmt.Sprintf("%v overhear %v", r.id, f.TxSrc))
}

// moveWorld is one channel over a disk whose stations log through
// logRadios.
type moveWorld struct {
	eng *sim.Engine
	ch  *Channel
	sts []*Station
	log []string
}

func newMoveWorld(pos []Position, seed int64) *moveWorld {
	w := &moveWorld{eng: sim.NewEngine(seed)}
	w.ch = NewChannel(w.eng, DefaultConfig())
	for i, p := range pos {
		w.sts = append(w.sts, w.ch.AddNode(pkt.NodeID(i), p, &logRadio{pkt.NodeID(i), &w.log}))
	}
	return w
}

// rxState spells out every station's carrier-sense count, transmit flag
// and locked reception.
func rxState(c *Channel) string {
	if !c.indexed {
		return "unindexed"
	}
	var b strings.Builder
	for i, st := range c.order {
		fmt.Fprintf(&b, "%v:%d/%v", st.id, c.sensed[i], c.busyTx[i])
		if rx := c.rx[i]; rx.tx != nil {
			fmt.Fprintf(&b, "<%v,%x,%v,%v", rx.tx.srcn.id, math.Float64bits(rx.signal), rx.decodable, rx.corrupted)
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// seqMove is the sequential reference: it applies one move on its own,
// rebuilds the index from scratch, and reconciles the mover's receiver
// state by the rules restated here. It returns the move's decode-range
// change flag: whether membership against any other station, where it
// stands now, differs between the mover's old and new positions.
func seqMove(c *Channel, mv Move) bool {
	st := c.station(mv.ID)
	if mv.Pos == st.pos {
		return false
	}
	changed := false
	for _, o := range c.order {
		if o != st && (o.pos.Dist(st.pos) <= c.cfg.TxRange) != (o.pos.Dist(mv.Pos) <= c.cfg.TxRange) {
			changed = true
		}
	}
	st.pos = mv.Pos
	if !c.indexed {
		return changed
	}
	c.indexed = false
	c.buildIndex()
	was := c.sensed[st.slot] > 0
	var n int32
	for _, f := range c.flight {
		if f.srcn != st && c.InCSRange(f.srcn.id, st.id) {
			n++
		}
	}
	c.sensed[st.slot] = n
	if rx := &c.rx[st.slot]; rx.tx != nil && !c.InCSRange(rx.tx.srcn.id, st.id) {
		*rx = reception{}
	}
	if (n > 0) != was {
		st.radio.CarrierBusy(n > 0)
	}
	return changed
}

// moveCoverage counts the cases a differential run reached.
type moveCoverage struct {
	changed, unchanged, callbacks, lockLost, lockKept, paused, jumps, roundTrips int
}

// moveScenario drives three copies of one n-station disk through ticks
// of link churn, flights and batches of moves drawn by pick: batch
// applies each tick's moves as one MoveNodes call, single as one call per
// move, and ref through seqMove. After every move single must match ref
// (change flag, receiver state, callback log); after every batch, batch
// must match ref (the flags or-ed), and batch and single must pass
// VerifyIndex. Once the moves are done, the air is drained in all three
// and their logs must still agree, with every sense count back at zero.
func moveScenario(t testing.TB, n int, seed int64, ticks int, pick func(int) int) moveCoverage {
	t.Helper()
	pos := diskPositions(n, seed)
	var ws [3]*moveWorld
	for i := range ws {
		ws[i] = newMoveWorld(pos, seed)
	}
	batch, single, ref := ws[0], ws[1], ws[2]
	each := func(f func(w *moveWorld)) {
		for _, w := range ws {
			f(w)
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	var cov moveCoverage
	extent := 100 * math.Sqrt(float64(n))
	cs := DefaultConfig().CSRange
	dir := func(d float64) Position {
		a := 2 * math.Pi * float64(pick(16)) / 16
		return Position{X: d * math.Cos(a), Y: d * math.Sin(a)}
	}
	for tick := 0; tick < ticks; tick++ {
		for range pick(3) { // link churn: losses and severed links
			a, b := pkt.NodeID(pick(n)), pkt.NodeID(pick(n))
			down, loss := pick(3) == 0, float64(pick(5))/8
			each(func(w *moveWorld) {
				w.ch.SetLinkDown(a, b, down)
				w.ch.SetLinkLoss(b, a, loss)
			})
		}
		for range pick(4) { // flights left on the air across the moves
			src := pick(n)
			if batch.ch.Transmitting(pkt.NodeID(src)) {
				continue
			}
			dst := pkt.NodeID(pick(n))
			each(func(w *moveWorld) { w.ch.TransmitFrom(w.sts[src], frame(pkt.NodeID(src), dst)) })
		}
		until := batch.eng.Now() + sim.Time(pick(9))*sim.Millisecond
		each(func(w *moveWorld) { w.eng.Run(until) })

		var moves []Move
		batchSize := pick(n + 1)
		if pick(2) == 0 {
			batchSize = pick(3) // a small batch, whose few flips may cancel out
		}
		for range batchSize {
			id := pkt.NodeID(pick(n))
			if batch.ch.Transmitting(id) {
				continue // the mobility engine defers these
			}
			st := ref.ch.station(id)
			p := st.pos
			for _, mv := range moves { // a repeated mover starts where it was sent
				if mv.ID == id {
					p = mv.Pos
				}
			}
			var lockSrc *Station
			if ref.ch.indexed && ref.ch.rx[st.slot].tx != nil {
				lockSrc = ref.ch.rx[st.slot].tx.srcn
			}
			switch k := pick(7); {
			case k == 0:
				cov.paused++
			case k == 6: // a round trip: out past the interference radius and back
				d := dir(1000 + float64(pick(3000)))
				moves = append(moves, Move{id, Position{X: p.X + d.X, Y: p.Y + d.Y}})
				cov.roundTrips++
			case k == 1: // a waypoint step
				d := dir(1.5)
				p = Position{X: p.X + d.X, Y: p.Y + d.Y}
			case k == 2: // a jump past the interference radius
				d := dir(1000 + float64(pick(3000)))
				p = Position{X: p.X + d.X, Y: p.Y + d.Y}
				cov.jumps++
			case k == 3 || lockSrc == nil: // a wander, maybe out of the disk
				p = Position{X: p.X + float64(pick(601)-300), Y: p.Y + float64(pick(601)-300)}
				if pick(8) == 0 {
					p = Position{X: float64(pick(5)-2) * extent, Y: float64(pick(5)-2) * extent}
				}
			case k == 4: // out of the locked frame's CS range
				d := dir(cs + 1 + float64(pick(200)))
				p = Position{X: lockSrc.pos.X + d.X, Y: lockSrc.pos.Y + d.Y}
			default: // within the locked frame's CS range
				d := dir(float64(pick(int(cs))))
				p = Position{X: lockSrc.pos.X + d.X, Y: lockSrc.pos.Y + d.Y}
			}
			moves = append(moves, Move{id, p})
		}

		locks, logged := lockedRx(ref.ch), len(ref.log)
		want := false
		for i, mv := range moves {
			r := seqMove(ref.ch, mv)
			want = want || r
			if got := single.ch.MoveNodes([]Move{mv}); got != r {
				fail("tick %d move %d (%v): MoveNodes changed=%v, sequential %v", tick, i, mv, got, r)
			}
			if g, r := rxState(single.ch), rxState(ref.ch); g != r {
				fail("tick %d move %d: receiver state\n got %s\nwant %s", tick, i, g, r)
			}
			if !slices.Equal(single.log, ref.log) {
				fail("tick %d move %d: callbacks\n got %q\nwant %q", tick, i, single.log, ref.log)
			}
		}
		if got := batch.ch.MoveNodes(moves); got != want {
			fail("tick %d: batch changed=%v, sequential %v", tick, got, want)
		}
		if g, r := rxState(batch.ch), rxState(ref.ch); g != r {
			fail("tick %d: batch receiver state\n got %s\nwant %s", tick, g, r)
		}
		if !slices.Equal(batch.log, ref.log) {
			fail("tick %d: batch callbacks\n got %q\nwant %q", tick, batch.log, ref.log)
		}
		for _, w := range ws[:2] {
			if err := w.ch.VerifyIndex(); err != nil {
				fail("tick %d: %v", tick, err)
			}
		}
		if want {
			cov.changed++
		} else {
			cov.unchanged++
		}
		after := lockedRx(ref.ch)
		for st := range locks {
			if slices.ContainsFunc(moves, func(mv Move) bool { return mv.ID == st.id }) {
				if after[st] {
					cov.lockKept++
				} else {
					cov.lockLost++
				}
			}
		}
		for _, l := range ref.log[logged:] {
			if strings.Contains(l, "busy") {
				cov.callbacks++
			}
		}
		each(func(w *moveWorld) { w.log = w.log[:0] })
	}
	each(func(w *moveWorld) {
		for w.eng.RunStep() {
		}
	})
	if !slices.Equal(batch.log, ref.log) || !slices.Equal(single.log, ref.log) {
		fail("draining the air: logs diverge\nbatch  %q\nsingle %q\nref    %q", batch.log, single.log, ref.log)
	}
	for _, w := range ws {
		for _, st := range w.sts {
			if w.ch.indexed && w.ch.Busy(st.id) {
				fail("station %v senses a busy medium after the last flight", st.id)
			}
		}
	}
	return cov
}

// lockedRx returns the stations locked onto a frame.
func lockedRx(c *Channel) map[*Station]bool {
	out := map[*Station]bool{}
	if c.indexed {
		for i, st := range c.order {
			if c.rx[i].tx != nil {
				out[st] = true
			}
		}
	}
	return out
}

// TestMoveNodesMatchesSequential is the differential check of MoveNodes
// against the sequential reference, over random disks with link loss and
// severed links set, flights on the air, paused movers, 1.5-m steps,
// jumps past the interference radius, round trips that leave and come
// back within one batch, and locked receivers moving out of or within
// the frame's CS range, movers in random order and sometimes repeated.
// It also pins that the runs reached each of those cases.
func TestMoveNodesMatchesSequential(t *testing.T) {
	var cov moveCoverage
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		c := moveScenario(t, n, seed, 40, rng.Intn)
		cov.changed += c.changed
		cov.unchanged += c.unchanged
		cov.callbacks += c.callbacks
		cov.lockLost += c.lockLost
		cov.lockKept += c.lockKept
		cov.paused += c.paused
		cov.jumps += c.jumps
		cov.roundTrips += c.roundTrips
	}
	if cov.changed == 0 || cov.unchanged == 0 || cov.callbacks == 0 || cov.lockLost == 0 ||
		cov.lockKept == 0 || cov.paused == 0 || cov.jumps == 0 || cov.roundTrips == 0 {
		t.Fatalf("the runs missed a case: %+v", cov)
	}
}

// FuzzMoveNodes drives the differential check of
// TestMoveNodesMatchesSequential from fuzzed choices: every draw the
// scenario makes (disk size, link churn, flights, movers and their
// moves) reads the next byte of script, and an exhausted script draws 0.
func FuzzMoveNodes(f *testing.F) {
	f.Add(int64(1), []byte{9, 2, 1, 3, 4, 2, 5, 7, 30, 3, 1, 4, 5, 2, 5, 9, 6, 4, 2, 0, 3})
	f.Add(int64(2), []byte{40, 0, 3, 1, 2, 3, 8, 20, 5, 2, 4, 1, 6, 5, 3, 0, 0, 7, 200, 1})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		pick := func(n int) int {
			if len(script) == 0 || n <= 1 {
				return 0
			}
			v := int(script[0])
			script = script[1:]
			return v % n
		}
		n := 2 + pick(40)
		moveScenario(t, n, seed, 1+pick(8), pick)
	})
}

// TestMoveNodeTickMatchesRebuild drives the mobility engine's pattern on
// a 200-node disk: every station takes one 1.5-m waypoint step per tick,
// in one MoveNodes batch, with occasional jumps outside the disk,
// link-state churn, flights left on the air across the moves, and a
// mid-run AddNode that shifts every slot. The index must match the
// oracle after every tick.
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
	var moves []Move
	for tick := 0; tick < 120; tick++ {
		if tick == 60 {
			// Drain the air first: a station added mid-flight would owe
			// the flights' finish a carrier-sense decrement it never got.
			for eng.RunStep() {
			}
			late := ch.AddNode(n, Position{X: 150, Y: -90}, nil)
			sts = append(sts, late)
			ch.MoveNodes([]Move{{n, Position{X: 160, Y: -95}}}) // before the rebuild
			if ch.indexed {
				t.Fatal("a move before the first flight after AddNode must not build the index")
			}
			send(late)
			if !ch.indexed {
				t.Fatal("the flight after AddNode must rebuild the index")
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
		moves = moves[:0]
		for _, st := range sts {
			if ch.Transmitting(st.id) {
				deferred++
				continue // as the mobility engine defers it
			}
			p := w.step(int(st.id), st.pos)
			if rng.Intn(500) == 0 {
				p = Position{X: (rng.Float64()*4 - 2) * extent, Y: (rng.Float64()*4 - 2) * extent}
			}
			moves = append(moves, Move{st.id, p})
		}
		ch.MoveNodes(moves)
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
// index build takes it out of range of all its many neighbors leaves
// an index equal to the oracle, and empties its own list.
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
		t.Fatal("the mover needs many neighbors to leave")
	}
	ch.MoveNodes([]Move{{9, Position{X: 1e6, Y: 1e6}}})
	if err := ch.VerifyIndex(); err != nil {
		t.Fatal(err)
	}
	if len(ch.station(9).nbrs) != 0 {
		t.Fatal("a station beyond everyone's interference range keeps neighbors")
	}
}

// TestMoveNodeBeforeIndexBuilds exercises the pre-index path: moves
// before the first transmission just adopt positions, and the eventual
// build sees the final geometry.
func TestMoveNodeBeforeIndexBuilds(t *testing.T) {
	eng, ch, radios := setup(t, Position{}, Position{X: 200}, Position{X: 1500})
	if !ch.MoveNodes([]Move{{2, Position{X: 400}}}) {
		t.Fatal("move into decode range should report membership change")
	}
	if ch.MoveNodes([]Move{{2, Position{X: 390}}}) {
		t.Fatal("move within decode range should not report membership change")
	}
	if ch.indexed {
		t.Fatal("moves before the first transmission must not build the index")
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
	ch.MoveNodes([]Move{{1, Position{X: 800}}}) // beyond CSRange(550) of the transmitter
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
	ch.MoveNodes([]Move{{1, Position{X: 240}}})
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
	ch.MoveNodes([]Move{{1, Position{X: 200}}})
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
// Transmitting, and that the rejected batch moved nobody, not even the
// movers listed before the transmitter.
func TestMoveWhileTransmittingPanics(t *testing.T) {
	_, ch, _ := setup(t, Position{}, Position{X: 200})
	transmit(ch, 0, frame(0, 1))
	if !ch.Transmitting(0) {
		t.Fatal("node 0 should be transmitting")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MoveNodes of a transmitting station must panic")
		}
		if p := ch.Position(1); p != (Position{X: 200}) {
			t.Fatalf("the rejected batch moved node 1 to %v", p)
		}
	}()
	ch.MoveNodes([]Move{{1, Position{X: 300}}, {0, Position{X: 50}}})
}

// TestMoveNodeReadsLinkStateMaps: with only one of the loss and down
// maps set, a node moving out of and back into range of its severed or
// lossy peers must carry the link state into the records the rebuild
// recreates, in both directions.
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
				ch.MoveNodes([]Move{{7, p}})
				if err := ch.VerifyIndex(); err != nil {
					t.Fatalf("after moving to %v: %v", p, err)
				}
			}
		})
	}
}

// TestMoveNodesSteadyStateAllocs pins that a steady-state tick — every
// station of a 200-node disk moving in one batch — allocates nothing
// once buildIndex's storage has grown to the topology.
func TestMoveNodesSteadyStateAllocs(t *testing.T) {
	ch, _, _, _ := moveBench(200)
	there := make([]Move, len(ch.order))
	back := make([]Move, len(ch.order))
	for i, st := range ch.order {
		back[i] = Move{st.id, st.pos}
		there[i] = Move{st.id, Position{X: st.pos.X + 1.5, Y: st.pos.Y - 1}}
	}
	tick := func() {
		ch.MoveNodes(there)
		ch.MoveNodes(back)
	}
	tick() // grow the build storage
	if allocs := testing.AllocsPerRun(20, tick); allocs != 0 {
		t.Fatalf("two steady-state MoveNodes ticks allocate %.1f times, want 0", allocs)
	}
}

// moveBench builds an indexed n-node disk channel and returns it with
// one station's two oscillation endpoints (≈120 m apart, crossing decode
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
	for i := 0; i < 4; i++ {
		ch.MoveNodes([]Move{{7, b}})
		ch.MoveNodes([]Move{{7, a}})
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

// BenchmarkMoveNodes prices one MoveNodes batch on the 200-node disk.
// tick moves every station one 1.5-m waypoint step per op (the mobile
// workload's 3 m/s at 0.5-s ticks); sparse moves one station per op,
// oscillating ≈120 m, as a trace file with few movers would. Both pay
// one index rebuild per op and, once warm, allocate nothing.
func BenchmarkMoveNodes(b *testing.B) {
	b.Run("tick", func(b *testing.B) {
		ch, _, _, _ := moveBench(200)
		w := newWaypoints(200, 1.5, 1)
		moves := make([]Move, len(ch.order))
		tick := func() {
			for i, st := range ch.order {
				moves[i] = Move{st.id, w.step(int(st.id), st.pos)}
			}
			ch.MoveNodes(moves)
		}
		for range 200 { // grow the build storage (growth is rare afterwards)
			tick()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
		}
	})
	b.Run("sparse", func(b *testing.B) {
		ch, _, p1, p2 := moveBench(200)
		ends := [2][]Move{{{7, p2}}, {{7, p1}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch.MoveNodes(ends[i%2])
		}
	})
}
