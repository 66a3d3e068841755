package ctl_test

import (
	"testing"

	"ezflow/internal/ctl"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// deployOnChain builds a bare hops-hop chain and deploys the named
// controller on it through the registry, as a scenario does.
func deployOnChain(t *testing.T, hops int, name string, opts ctl.Options) (*sim.Engine, *mesh.Mesh, ctl.Instance) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, hops, phy.DefaultConfig(), mac.DefaultConfig())
	info, ok := ctl.Controllers.ByName(name)
	if !ok {
		t.Fatalf("controller %q not registered", name)
	}
	return eng, m, info.Deploy(m, opts)
}

func TestPenaltySetsWindows(t *testing.T) {
	_, m, _ := deployOnChain(t, 4, "penalty", ctl.Options{PenaltyQ: 1.0 / 8})
	// Source queue cw = 16/(1/8) = 128; relays = 16.
	if cw := m.Node(0).SourceQueue(1).CWmin(); cw != 128 {
		t.Fatalf("source cw = %d, want 128", cw)
	}
	for i := 1; i <= 3; i++ {
		for _, q := range m.Node(pkt.NodeID(i)).Queues() {
			if q.CWmin() != 16 {
				t.Fatalf("relay N%d cw = %d, want 16", i, q.CWmin())
			}
		}
	}
}

func TestPenaltyDegeneratesToPlain(t *testing.T) {
	_, m, _ := deployOnChain(t, 3, "penalty", ctl.Options{PenaltyQ: 1})
	if cw := m.Node(0).SourceQueue(1).CWmin(); cw != 16 {
		t.Fatalf("q=1 source cw = %d, want the relay window 16", cw)
	}
}

// TestPenaltyRejectsBadQ checks that a factor outside (0,1] is never
// applied: the controller falls back to the default 1/128.
func TestPenaltyRejectsBadQ(t *testing.T) {
	for _, q := range []float64{0, -0.5, 1.5} {
		_, m, _ := deployOnChain(t, 3, "penalty", ctl.Options{PenaltyQ: q})
		if cw := m.Node(0).SourceQueue(1).CWmin(); cw != 16*128 {
			t.Errorf("q=%v: source cw = %d, want the default factor's %d", q, cw, 16*128)
		}
	}
}

func TestPenaltyStabilizesChain(t *testing.T) {
	// The scheme of [9] with a strong penalty must keep the first relay's
	// queue from saturating on a 4-hop chain.
	eng, m, _ := deployOnChain(t, 4, "penalty", ctl.Options{PenaltyQ: 1.0 / 32})
	traffic.NewCBR(m, 1, 2e6, 1028).Start()
	eng.Run(600 * sim.Second)
	if d := m.Node(1).ForwardQueue(2).Len(); d > 40 {
		t.Fatalf("penalty scheme left N1 with %d queued", d)
	}
}

func TestDiffQPiggybacksAndAdapts(t *testing.T) {
	eng, m, inst := deployOnChain(t, 4, "diffq", ctl.Options{})
	dep := inst.(*ctl.DiffQ)
	traffic.NewCBR(m, 1, 2e6, 1028).Start()
	eng.Run(120 * sim.Second)
	if dep.OverheadBytes() == 0 {
		t.Fatal("DiffQ sent no piggybacked bytes (message passing absent)")
	}
	if dep.Nodes[1].Updates == 0 {
		t.Fatal("DiffQ node never learned a neighbour backlog")
	}
	// At least one queue should have left the default CWmin class.
	moved := false
	for _, n := range m.Nodes() {
		for _, q := range n.Queues() {
			if q.CWmin() != mac.DefaultCWmin {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("DiffQ never remapped any CWmin")
	}
}

// TestDiffQTagsEveryAttempt pins that every data frame DiffQ puts on the
// air advertises its transmitter's backlog, retries included. The head
// packet stays queued until acknowledged, so no tag may read 0.
func TestDiffQTagsEveryAttempt(t *testing.T) {
	eng, m, _ := deployOnChain(t, 4, "diffq", ctl.Options{})
	var retries, firsts, zero int
	for _, n := range m.Nodes() {
		n.MAC.AddTap(func(f *pkt.Frame, _ pkt.CaptureInfo) {
			if f.Type != pkt.FrameData || f.Payload == nil {
				return
			}
			if f.Retry {
				retries++
			} else {
				firsts++
			}
			if f.QueueTag == 0 {
				zero++
			}
		})
	}
	traffic.NewCBR(m, 1, 2e6, 1028).Start()
	eng.Run(60 * sim.Second)
	if retries == 0 || firsts == 0 {
		t.Fatalf("overheard %d first attempts and %d retries, want both", firsts, retries)
	}
	if zero != 0 {
		t.Errorf("%d of %d overheard data frames (%d retries) advertise backlog 0", zero, firsts+retries, retries)
	}
}

func TestDiffQOverheadGrowsWithTraffic(t *testing.T) {
	run := func(dur sim.Time) uint64 {
		eng, m, inst := deployOnChain(t, 3, "diffq", ctl.Options{})
		traffic.NewCBR(m, 1, 2e6, 1028).Start()
		eng.Run(dur)
		return inst.OverheadBytes()
	}
	short, long := run(30*sim.Second), run(120*sim.Second)
	if long <= short {
		t.Fatalf("overhead did not grow with traffic: %d vs %d", short, long)
	}
}
