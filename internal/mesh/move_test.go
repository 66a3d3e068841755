package mesh

import (
	"math/rand"
	"sync"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// TestMoveMatchesRebuild is the mobility stress test: it interleaves
// batches of moves (MoveNodes), SetLinkDown/SetLinkLoss, node churn
// (mac.SetDown), and route repair through the active routing strategy on
// one random-disk topology — with live traffic pumping through the stack
// between operations — and pins after every operation that the neighbor
// index matches a from-scratch recomputation (phy.Channel.VerifyIndex is
// the oracle). Several instances run
// concurrently so `go test -race` interleaves independent engines, the
// way campaign workers do.
func TestMoveMatchesRebuild(t *testing.T) {
	var wg sync.WaitGroup
	for _, seed := range []int64{1, 2, 3, 4} {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			moveMatchesRebuild(t, seed)
		}(seed)
	}
	wg.Wait()
}

func moveMatchesRebuild(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine(seed)
	m := RandomDiskLossy(eng, 40, 0, seed, 0, phy.DefaultConfig(), mac.DefaultConfig())
	ids := m.Ch.NodeIDs()
	usable := func(a, b pkt.NodeID) bool {
		return !m.Node(a).MAC.Down() && !m.Node(b).MAC.Down() &&
			!m.Ch.LinkDown(a, b) && m.Ch.InTxRange(a, b)
	}
	// Traffic on the installed rim flow forces the index build and keeps
	// flights, queues, and receptions live across the churn below.
	pump := func() {
		src := m.Route(1)[0]
		p := pkt.NewPool().Packet(1, 1, src, 0, 1028, eng.Now())
		m.Inject(p)
		p.Release()
		eng.Run(eng.Now() + 20*sim.Millisecond)
	}
	pump()

	radius := DefaultDiskRadius(40)
	for step := 0; step < 150; step++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(8) {
		case 0, 1: // link churn
			b := ids[rng.Intn(len(ids))]
			if b != id {
				m.Ch.SetLinkDown(id, b, rng.Intn(2) == 0)
				m.Ch.SetLinkLoss(id, b, rng.Float64()/2)
			}
		case 2: // node churn: power a non-terminal node off or back on
			if id != 0 && id != m.Route(1)[0] {
				m.Node(id).MAC.SetDown(rng.Intn(2) == 0)
			}
		case 3: // route repair through the active strategy
			m.RerouteFlow(1, usable)
		default: // the common case: a batch of nodes moves
			var moves []phy.Move
			for range 1 + rng.Intn(4) {
				id := ids[rng.Intn(len(ids))]
				if m.Ch.Transmitting(id) {
					continue // mobility engine defers these; so does the test
				}
				p := m.Ch.Position(id)
				moves = append(moves, phy.Move{ID: id, Pos: phy.Position{
					X: p.X + rng.NormFloat64()*radius/4,
					Y: p.Y + rng.NormFloat64()*radius/4,
				}})
			}
			m.MoveNodes(moves)
		}
		pump()
		if err := m.Ch.VerifyIndex(); err != nil {
			t.Errorf("seed %d step %d: index diverged from its geometry: %v", seed, step, err)
			return
		}
	}
}
