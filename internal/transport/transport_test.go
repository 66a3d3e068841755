package transport

import (
	"testing"

	"ezflow/internal/ctl"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

func newChainConn(t *testing.T, hops int, cfg Config) (*sim.Engine, *mesh.Mesh, *Conn) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := mesh.New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	path := make([]pkt.NodeID, hops+1)
	for i := 0; i <= hops; i++ {
		m.AddNode(pkt.NodeID(i), phy.Position{X: float64(i) * mesh.DefaultHopDist})
		path[i] = pkt.NodeID(i)
	}
	InstallBidirectional(m, 1, path)
	return eng, m, New(m, 1, cfg)
}

func TestReliableDeliveryCleanLink(t *testing.T) {
	eng, _, c := newChainConn(t, 1, DefaultConfig())
	c.Start()
	eng.Run(60 * sim.Second)
	if c.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Everything cumulatively acknowledged must have been delivered
	// in order exactly once.
	if c.Delivered != c.recvNext-1 {
		t.Fatalf("delivered %d but recvNext %d", c.Delivered, c.recvNext)
	}
	if c.Retransmits > c.Sent/10 {
		t.Fatalf("%d retransmits of %d sent on a clean link", c.Retransmits, c.Sent)
	}
}

func TestWindowGrowsOnCleanLink(t *testing.T) {
	eng, _, c := newChainConn(t, 1, DefaultConfig())
	c.Start()
	eng.Run(30 * sim.Second)
	if c.cwnd <= DefaultConfig().InitWindow {
		t.Fatalf("cwnd %.1f never grew", c.cwnd)
	}
	if len(c.WindowTrace) == 0 {
		t.Fatal("no window trace")
	}
}

func TestLossTriggersTimeoutAndRecovery(t *testing.T) {
	eng, m, c := newChainConn(t, 2, DefaultConfig())
	// A lossy middle link that the MAC retry limit cannot always mask.
	m.Ch.SetLinkLoss(1, 2, 0.35)
	c.Start()
	eng.Run(300 * sim.Second)
	if c.Delivered == 0 {
		t.Fatal("nothing delivered over the lossy path")
	}
	// In-order invariant must hold regardless of loss.
	if c.Delivered != c.recvNext-1 {
		t.Fatalf("in-order accounting broken: %d vs %d", c.Delivered, c.recvNext-1)
	}
}

func TestStopHaltsSender(t *testing.T) {
	eng, _, c := newChainConn(t, 1, DefaultConfig())
	c.Start()
	eng.Run(10 * sim.Second)
	sent := c.Sent
	c.Stop()
	eng.Run(30 * sim.Second)
	if c.Sent != sent {
		t.Fatalf("sender kept injecting after Stop: %d -> %d", sent, c.Sent)
	}
}

func TestWindowBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindow = 8
	eng, _, c := newChainConn(t, 1, cfg)
	c.Start()
	eng.Run(120 * sim.Second)
	if c.cwnd > 8 {
		t.Fatalf("cwnd %.1f above MaxWindow", c.cwnd)
	}
	for _, w := range c.WindowTrace {
		if w.Cwnd < 1 || w.Cwnd > 8 {
			t.Fatalf("window excursion to %.2f", w.Cwnd)
		}
	}
}

func TestMissingReverseRoutePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.New(eng, phy.DefaultConfig(), mac.DefaultConfig())
	m.AddNode(0, phy.Position{X: 0})
	m.AddNode(1, phy.Position{X: 200})
	m.SetRoute(1, []pkt.NodeID{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("missing ACK route did not panic")
		}
	}()
	New(m, 1, DefaultConfig())
}

// TestEZFlowUnderBidirectionalTraffic is the §2.3 claim: EZ-Flow improves
// a multi-hop network carrying TCP-like bidirectional traffic, where the
// reverse ACK stream contends with forward data.
func TestEZFlowUnderBidirectionalTraffic(t *testing.T) {
	run := func(withEZ bool) (delivered uint64, meanQ1 float64) {
		eng := sim.NewEngine(1)
		m := mesh.New(eng, phy.DefaultConfig(), mac.DefaultConfig())
		path := make([]pkt.NodeID, 6)
		for i := 0; i <= 5; i++ {
			m.AddNode(pkt.NodeID(i), phy.Position{X: float64(i) * mesh.DefaultHopDist})
			if i > 0 {
				path[i] = pkt.NodeID(i)
			}
		}
		InstallBidirectional(m, 1, path)
		if withEZ {
			info, _ := ctl.Controllers.ByName("ezflow")
			info.Deploy(m, ctl.Options{})
		}
		cfg := DefaultConfig()
		cfg.MaxWindow = 200 // aggressive enough to congest the backhaul
		c := New(m, 1, cfg)
		c.Start()
		var sum, n float64
		probe := m.Node(1)
		var tick func()
		tick = func() {
			sum += float64(probe.MAC.TotalQueued())
			n++
			eng.Schedule(sim.Second, tick)
		}
		eng.Schedule(sim.Second, tick)
		eng.Run(600 * sim.Second)
		return c.Delivered, sum / n
	}
	plainD, plainQ := run(false)
	ezD, ezQ := run(true)
	if plainD == 0 || ezD == 0 {
		t.Fatal("bidirectional runs delivered nothing")
	}
	// EZ-Flow must not collapse goodput and should reduce relay backlog.
	if float64(ezD) < 0.7*float64(plainD) {
		t.Fatalf("EZ-flow collapsed bidirectional goodput: %d vs %d", ezD, plainD)
	}
	if ezQ > plainQ*1.2 {
		t.Fatalf("EZ-flow increased relay backlog under TCP-like load: %.1f vs %.1f", ezQ, plainQ)
	}
}
