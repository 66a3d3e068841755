package phy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// newIndexedChannel builds a channel over the given positions and forces
// the neighbor index (normally built by the first transmission).
func newIndexedChannel(t *testing.T, pos []Position) *Channel {
	t.Helper()
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	for i, p := range pos {
		ch.AddNode(pkt.NodeID(i), p, nil)
	}
	ch.buildIndex()
	return ch
}

// checkIndexBruteForce checks every cached record of ch against a direct
// O(N²) recomputation: membership (exactly the pairs within interference
// range), order (ascending slot), the cached power and range predicates,
// which must be bit-identical to the closed-form model — the hot path
// substitutes these values for live math.Hypot/math.Pow calls — and the
// directed loss and severed state of the owner->neighbor link.
func checkIndexBruteForce(t *testing.T, ch *Channel) {
	t.Helper()
	r := ch.cfg.interferenceRange()
	for i, st := range ch.order {
		if st.slot != int32(i) {
			t.Fatalf("station %d has slot %d", i, st.slot)
		}
		want := 0
		prev := int32(-1)
		for j, o := range ch.order {
			d := st.pos.Dist(o.pos)
			if j == i || d > r {
				if lk := st.neighbor(int32(j)); lk != nil && j != i {
					t.Errorf("%v lists %v (d=%.1f) beyond interference range %.1f", st.id, o.id, d, r)
				}
				continue
			}
			want++
			lk := st.neighbor(int32(j))
			if lk == nil {
				t.Fatalf("%v missing neighbor %v at d=%.1f (range %.1f)", st.id, o.id, d, r)
			}
			if lk.power != ch.cfg.power(d) {
				t.Errorf("%v->%v cached power %v != %v", st.id, o.id, lk.power, ch.cfg.power(d))
			}
			if lk.inCS != (d <= ch.cfg.CSRange) || lk.inTx != (d <= ch.cfg.TxRange) {
				t.Errorf("%v->%v range flags inCS=%v inTx=%v at d=%.1f", st.id, o.id, lk.inCS, lk.inTx, d)
			}
			if lk.loss != ch.LinkLoss(st.id, o.id) || lk.down != ch.down[linkKey{st.id, o.id}] {
				t.Errorf("%v->%v cached loss=%v down=%v, want loss=%v down=%v", st.id, o.id,
					lk.loss, lk.down, ch.LinkLoss(st.id, o.id), ch.down[linkKey{st.id, o.id}])
			}
			if lk.slot <= prev {
				t.Errorf("%v neighbor list not ascending at slot %d", st.id, lk.slot)
			}
			prev = lk.slot
		}
		if len(st.nbrs) != want {
			t.Errorf("%v has %d neighbors, want %d", st.id, len(st.nbrs), want)
		}
		// csNbrs must index exactly the in-CS subsequence.
		cs := 0
		for k := range st.nbrs {
			if st.nbrs[k].inCS {
				if cs >= len(st.csNbrs) || st.csNbrs[cs] != int32(k) {
					t.Fatalf("%v csNbrs misses entry %d", st.id, k)
				}
				cs++
			}
		}
		if cs != len(st.csNbrs) {
			t.Errorf("%v csNbrs has %d extra entries", st.id, len(st.csNbrs)-cs)
		}
	}
	if err := ch.VerifyIndex(); err != nil {
		t.Error(err)
	}
}

// TestNeighborIndexMatchesBruteForce checks the built index against the
// O(N²) recomputation on a 120-node and a 400-node default-density disk,
// with asymmetric link state applied before the freeze, and after a
// rebuild forced mid-flight by a new station.
func TestNeighborIndexMatchesBruteForce(t *testing.T) {
	t.Run("disk120", func(t *testing.T) {
		checkIndexBruteForce(t, newIndexedChannel(t, diskPositions(120, 7)))
	})
	t.Run("disk400", func(t *testing.T) {
		checkIndexBruteForce(t, newIndexedChannel(t, diskPositions(400, 11)))
	})

	// Losses and severed flags are directed; setting one direction of a
	// pair, from either end, catches a transposed key in the fill pass.
	t.Run("asymmetric-links", func(t *testing.T) {
		pos := diskPositions(120, 5)
		ch := NewChannel(sim.NewEngine(1), DefaultConfig())
		for i, p := range pos {
			ch.AddNode(pkt.NodeID(i), p, nil)
		}
		r := ch.cfg.interferenceRange()
		set := 0
		for a := range pos {
			for b := a + 1; b < len(pos); b++ {
				if pos[a].Dist(pos[b]) > r || (a+b)%3 == 0 {
					continue
				}
				from, to := pkt.NodeID(a), pkt.NodeID(b)
				if (a*7+b)%2 == 0 {
					from, to = to, from
				}
				ch.SetLinkLoss(from, to, float64(a*len(pos)+b)/float64(len(pos)*len(pos)))
				if (a+b)%5 == 0 {
					ch.SetLinkDown(to, from, true)
				}
				set++
			}
		}
		if set == 0 {
			t.Fatal("no in-range pair to mutate")
		}
		ch.buildIndex()
		checkIndexBruteForce(t, ch)
	})

	// A station registered mid-flight renumbers every slot; the rebuild
	// must carry each station's sensed count, busy flag and locked
	// reception over to its new slot.
	t.Run("rebuild-after-AddNode", func(t *testing.T) {
		pos := diskPositions(120, 9)
		eng := sim.NewEngine(1)
		ch := NewChannel(eng, DefaultConfig())
		for i, p := range pos {
			ch.AddNode(pkt.NodeID(i+10), p, nil)
		}
		for _, src := range []pkt.NodeID{10, 40, 75, 110} {
			f := ch.Pool().Frame()
			f.Type, f.TxSrc, f.TxDst = pkt.FrameData, src, src+1
			transmit(ch, src, f)
		}
		type state struct {
			sensed int32
			busy   bool
			rx     reception
		}
		snapshot := func() map[pkt.NodeID]state {
			m := map[pkt.NodeID]state{}
			for _, st := range ch.order {
				m[st.id] = state{ch.sensed[st.slot], ch.busyTx[st.slot], ch.rx[st.slot]}
			}
			return m
		}
		before := snapshot()
		busy, locked := 0, 0
		for _, s := range before {
			if s.sensed > 0 {
				busy++
			}
			if s.rx.tx != nil {
				locked++
			}
		}
		if busy == 0 || locked == 0 {
			t.Fatalf("flights left %d stations sensing and %d locked; want some of each", busy, locked)
		}
		ch.AddNode(pkt.NodeID(1), Position{X: -1e5}, nil)
		ch.buildIndex()
		after := snapshot()
		for id, s := range before {
			if after[id] != s {
				t.Errorf("%v: state %+v before the rebuild, %+v after", id, s, after[id])
			}
		}
		if s := after[1]; s != (state{}) {
			t.Errorf("new station starts with state %+v", s)
		}
		checkIndexBruteForce(t, ch)
		for eng.RunStep() {
		}
		for id, s := range snapshot() {
			if s.sensed != 0 || s.busy || s.rx.tx != nil {
				t.Errorf("%v: state %+v after every flight ended", id, s)
			}
		}
	})
}

// TestInterferenceRangeCoversCorruption verifies the index radius bound:
// an interferer just inside the radius can still corrupt the weakest
// lockable signal, and one beyond it never can (the condition the hot
// path's "skip non-neighbors" shortcut relies on).
func TestInterferenceRangeCoversCorruption(t *testing.T) {
	cfg := DefaultConfig()
	r := cfg.interferenceRange()
	weakest := cfg.power(cfg.CSRange)
	if p := cfg.power(r * 1.0001); weakest < cfg.CaptureRatio*p {
		t.Errorf("interferer beyond range %v would corrupt: %v < %v", r, weakest, cfg.CaptureRatio*p)
	}
	if p := cfg.power(r * 0.95); weakest >= cfg.CaptureRatio*p {
		t.Errorf("interferer inside range %v cannot corrupt: %v >= %v", r, weakest, cfg.CaptureRatio*p)
	}
	if inf := (Config{CSRange: 550, PathLossExp: 0}).interferenceRange(); !math.IsInf(inf, 1) {
		t.Errorf("degenerate path-loss exponent should disable pruning, got %v", inf)
	}
}

// TestIndexPatchOnLinkMutation checks the invalidation hooks: SetLinkLoss
// and SetLinkDown applied after the index is built must patch the cached
// record in place (the hot path reads only the record), and the maps stay
// authoritative for rebuilds.
func TestIndexPatchOnLinkMutation(t *testing.T) {
	ch := newIndexedChannel(t, chainPositions(6))
	st := ch.station(0)

	ch.SetLinkLoss(0, 1, 0.25)
	if lk := st.neighbor(1); lk.loss != 0.25 {
		t.Errorf("cached loss %v after SetLinkLoss, want 0.25", lk.loss)
	}
	ch.SetLinkDown(0, 1, true)
	if lk := st.neighbor(1); !lk.down {
		t.Error("cached record not severed after SetLinkDown")
	}
	ch.SetLinkDown(0, 1, false)
	if lk := st.neighbor(1); lk.down {
		t.Error("cached record still severed after restore")
	}

	// Mutations targeting pairs beyond interference range only touch the
	// maps (no cached record exists, none is needed for delivery).
	ch.SetLinkLoss(0, 5, 0.5)
	if lk := st.neighbor(5); lk != nil {
		t.Fatalf("N0 unexpectedly lists N5 (1000 m apart, range %.0f)", ch.cfg.interferenceRange())
	}
	if got := ch.LinkLoss(0, 5); got != 0.5 {
		t.Errorf("map loss %v, want 0.5", got)
	}

	// A rebuild (here: forced by a new station) folds the maps back in.
	ch.SetLinkLoss(0, 2, 0.75)
	ch.AddNode(pkt.NodeID(9), Position{X: 900}, nil)
	if ch.indexed {
		t.Fatal("AddNode did not invalidate the index")
	}
	ch.buildIndex()
	if lk := ch.station(0).neighbor(2); lk == nil || lk.loss != 0.75 {
		t.Errorf("rebuild lost the configured loss: %+v", lk)
	}
}

// TestIndexRebuildMigratesEventState pins the slot-state migration: state
// accumulated under one slot assignment (here: an in-flight transmission
// raising carrier sense) must survive a rebuild that renumbers slots.
func TestIndexRebuildMigratesEventState(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	for i, p := range chainPositions(3) {
		ch.AddNode(pkt.NodeID(i+10), p, nil)
	}
	f := ch.Pool().Frame()
	f.Type, f.TxSrc, f.TxDst = pkt.FrameData, 10, 11
	transmit(ch, 10, f)
	if !ch.Busy(11) {
		t.Fatal("neighbor not busy during flight")
	}
	// Register a smaller id mid-flight: every existing slot shifts up.
	ch.AddNode(pkt.NodeID(1), Position{X: -5000}, nil)
	if !ch.Busy(11) || ch.Busy(1) {
		t.Error("carrier-sense state lost across slot renumbering")
	}
	for eng.RunStep() {
	}
	if ch.Busy(11) {
		t.Error("carrier sense stuck after flight completion")
	}
}

// TestSpatialGridNearSuperset checks the grid's contract: Near must
// return a superset of the positions within the query radius, for probes
// inside and outside the built extent.
func TestSpatialGridNearSuperset(t *testing.T) {
	pos := diskPositions(80, 3)
	const radius = 400.0
	g := NewSpatialGrid(pos, radius)
	probes := append([]Position{{X: 1e5, Y: -1e5}, {X: 0, Y: 0}}, pos[:10]...)
	for _, p := range probes {
		got := map[int32]bool{}
		for _, i := range g.Near(p, nil) {
			got[i] = true
		}
		for i, q := range pos {
			if p.Dist(q) <= radius && !got[int32(i)] {
				t.Fatalf("Near(%v) misses index %d at distance %.1f", p, i, p.Dist(q))
			}
		}
	}
}

// TestSpatialGridCandidatePairs pins the bound buildIndex sizes its pass-1
// buffer with: it counts exactly the unordered pairs Near reports for the
// stored points, so it is never below the pairs within the query radius.
func TestSpatialGridCandidatePairs(t *testing.T) {
	for _, tc := range []struct {
		n      int
		radius float64
	}{{80, 400}, {400, 978}, {50, math.Inf(1)}, {1, 100}, {0, 100}} {
		pos := diskPositions(tc.n, 3)
		g := NewSpatialGrid(pos, tc.radius)
		near, inRange := 0, 0
		for i, p := range pos {
			for _, j := range g.Near(p, nil) {
				if int(j) > i {
					near++
				}
			}
			for _, q := range pos[i+1:] {
				if p.Dist(q) <= tc.radius {
					inRange++
				}
			}
		}
		if got := g.candidatePairs(); got != near || got < inRange {
			t.Fatalf("n=%d r=%g: candidatePairs = %d, want %d (Near pairs; %d in range)", tc.n, tc.radius, got, near, inRange)
		}
	}
}

// TestTxNeighborsMatchesInTxRange pins TxNeighbors to its contract, every
// b != a with InTxRange(a, b) in ascending id order, on both of its
// paths: the all-stations scan before the first build, the index walk
// after it and through 1,000 random moves, and the scan again when
// TxRange reaches past the neighbor-list radius.
func TestTxNeighborsMatchesInTxRange(t *testing.T) {
	check := func(t *testing.T, ch *Channel, when string) {
		t.Helper()
		ids := ch.NodeIDs()
		var got, want []pkt.NodeID
		for _, a := range ids {
			got, want = got[:0], want[:0]
			ch.TxNeighbors(a, func(b pkt.NodeID) { got = append(got, b) })
			for _, b := range ids {
				if b != a && ch.InTxRange(a, b) {
					want = append(want, b)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: TxNeighbors(%v) = %v, want %v", when, a, got, want)
			}
		}
	}
	build := func(cfg Config, n int) (*Channel, *sim.Engine) {
		eng := sim.NewEngine(1)
		ch := NewChannel(eng, cfg)
		for i, p := range diskPositions(n, 5) {
			ch.AddNode(pkt.NodeID(i), p, nil)
		}
		return ch, eng
	}
	transmit := func(ch *Channel, eng *sim.Engine) {
		f := ch.Pool().Frame()
		f.Type = pkt.FrameData
		f.TxSrc, f.TxDst = 0, 1
		ch.TransmitFrom(ch.station(0), f)
		for eng.RunStep() {
		}
	}

	t.Run("index", func(t *testing.T) {
		ch, eng := build(DefaultConfig(), 120)
		check(t, ch, "before the build")
		transmit(ch, eng)
		if !ch.indexed || !ch.txListed {
			t.Fatal("the first transmission did not build a list covering TxRange")
		}
		check(t, ch, "after the build")
		rng := rand.New(rand.NewSource(3))
		extent := 100 * math.Sqrt(120)
		for step := range 1000 {
			id := pkt.NodeID(rng.Intn(120))
			p := ch.Position(id)
			ch.MoveNodes([]Move{{id, Position{X: p.X + rng.NormFloat64()*extent/8, Y: p.Y + rng.NormFloat64()*extent/8}}})
			if step%50 == 49 {
				check(t, ch, fmt.Sprintf("after %d moves", step+1))
			}
		}
		if err := ch.VerifyIndex(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("tx-beyond-lists", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.TxRange = 2 * cfg.interferenceRange()
		ch, eng := build(cfg, 120)
		transmit(ch, eng)
		if !ch.indexed || ch.txListed {
			t.Fatal("want a built index whose lists stop short of TxRange")
		}
		check(t, ch, "TxRange past the list radius")
	})
}
