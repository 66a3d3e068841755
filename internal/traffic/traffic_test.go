package traffic

import (
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/obs"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

func newMesh(t *testing.T) (*sim.Engine, *mesh.Mesh) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, 2, phy.DefaultConfig(), mac.DefaultConfig())
	return eng, m
}

func TestCBRRate(t *testing.T) {
	eng, m := newMesh(t)
	// 82.24 kb/s with 1028-byte packets = exactly 10 packets per second.
	s := NewCBR(m, 1, 82240, 1028)
	s.Start()
	eng.Run(10 * sim.Second)
	// First packet at t=0, then one every 100 ms: 101 packets in [0,10].
	if s.Generated < 100 || s.Generated > 101 {
		t.Fatalf("generated %d packets, want ~100", s.Generated)
	}
}

func TestStartStopSchedule(t *testing.T) {
	eng, m := newMesh(t)
	s := NewCBR(m, 1, 82240, 1028)
	s.StartAt(2 * sim.Second)
	s.StopAt(4 * sim.Second)
	eng.Run(10 * sim.Second)
	// Active for 2 s at 10 pkt/s.
	if s.Generated < 19 || s.Generated > 22 {
		t.Fatalf("generated %d packets, want ~20", s.Generated)
	}
	if s.active {
		t.Fatal("source still active after StopAt")
	}
}

func TestDoubleStartIdempotent(t *testing.T) {
	eng, m := newMesh(t)
	s := NewCBR(m, 1, 82240, 1028)
	s.Start()
	s.Start()
	eng.Run(sim.Second)
	if s.Generated > 11 {
		t.Fatalf("double start doubled the rate: %d", s.Generated)
	}
}

func TestStopBeforeStart(t *testing.T) {
	eng, m := newMesh(t)
	s := NewCBR(m, 1, 82240, 1028)
	s.Stop() // no-op
	eng.Run(sim.Second)
	if s.Generated != 0 {
		t.Fatal("stopped source generated packets")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	eng, m := newMesh(t)
	s := NewPoisson(m, 1, 82240, 1028) // mean 10 pkt/s
	s.Start()
	eng.Run(100 * sim.Second)
	if s.Generated < 800 || s.Generated > 1200 {
		t.Fatalf("poisson generated %d in 100 s, want ~1000", s.Generated)
	}
}

func TestInjectedTracksOverflow(t *testing.T) {
	eng, m := newMesh(t)
	// Saturating rate: the 50-slot source queue must overflow, and
	// Injected must fall behind Generated.
	s := NewCBR(m, 1, 2e6, 1028)
	s.Start()
	eng.Run(30 * sim.Second)
	if s.Injected >= s.Generated {
		t.Fatalf("injected %d, generated %d: overflow not reflected",
			s.Injected, s.Generated)
	}
}

func TestNoRoutePanics(t *testing.T) {
	_, m := newMesh(t)
	defer func() {
		if recover() == nil {
			t.Fatal("CBR on unrouted flow did not panic")
		}
	}()
	NewCBR(m, 99, 1e6, 1028)
}

func TestDefaultBytes(t *testing.T) {
	_, m := newMesh(t)
	s := NewCBR(m, 1, 1e6, 0)
	if s.bytes != 1028 {
		t.Fatalf("default packet size %d, want 1028", s.bytes)
	}
}

// overflowSource returns a running saturating CBR source whose source
// queue is full and stays full: its station is halted (mac.MAC.SetDown),
// so nothing drains and every further arrival overflows. One overflow
// has already fired, so the engine's lane ring is warm.
func overflowSource(tb testing.TB) (*sim.Engine, *mesh.Mesh, *Source) {
	tb.Helper()
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, 2, phy.DefaultConfig(), mac.DefaultConfig())
	m.Node(0).MAC.SetDown(true)
	s := NewCBR(m, 1, 2e6, 1028)
	s.Start()
	for s.Generated <= mac.DefaultQueueCap {
		eng.RunStep()
	}
	if s.Injected != mac.DefaultQueueCap {
		tb.Fatalf("injected %d of %d arrivals, want a full %d-packet queue", s.Injected, s.Generated, mac.DefaultQueueCap)
	}
	return eng, m, s
}

// BenchmarkSourceOverflow measures one arrival at a full source queue:
// the overflow drop the paper's saturating sources mostly produce.
// allocs/op and the pool counters are pinned by TestSourceOverflowAllocs.
func BenchmarkSourceOverflow(b *testing.B) {
	eng, m, _ := overflowSource(b)
	before := m.Pool().Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunStep()
	}
	b.StopTimer()
	if after := m.Pool().Stats; after != before {
		b.Fatalf("overflowing arrivals moved the pool: %+v, then %+v", before, after)
	}
}

// TestSourceOverflowAllocs pins an arrival at a full source queue at
// zero allocations and zero pooled packets: the drop is counted and the
// next arrival scheduled without building a packet.
func TestSourceOverflowAllocs(t *testing.T) {
	eng, m, s := overflowSource(t)
	before := m.Pool().Stats
	if avg := testing.AllocsPerRun(1000, func() { eng.RunStep() }); avg != 0 {
		t.Fatalf("an overflowing arrival allocates %.3f, want 0", avg)
	}
	if after := m.Pool().Stats; after != before {
		t.Fatalf("overflowing arrivals moved the pool: %+v, then %+v", before, after)
	}
	q := m.Node(0).SourceQueue(1)
	if drops := s.Generated - s.Injected; q.DroppedOverflow != drops || q.Dropped != drops || q.Len() != mac.DefaultQueueCap {
		t.Fatalf("queue dropped %d/%d with %d queued; source generated %d, injected %d",
			q.DroppedOverflow, q.Dropped, q.Len(), s.Generated, s.Injected)
	}
}

// TestOverflowDropHookSeesPackets checks that a registered drop hook
// keeps receiving every overflowing arrival as a packet, with the
// sequence number the source gave it, and that the flight recorder's
// drop records match either way.
func TestOverflowDropHookSeesPackets(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		eng, m, s := overflowSource(t)
		rec := obs.NewFlightRecorder(64)
		m.Node(0).MAC.SetRecorder(rec)
		var seqs []uint64
		if hooked {
			m.Node(0).MAC.AddDropHook(func(p *pkt.Packet, r mac.DropReason) {
				if r != mac.DropQueueOverflow || p.Flow != 1 {
					t.Fatalf("drop hook saw flow %v reason %v", p.Flow, r)
				}
				seqs = append(seqs, p.Seq)
			})
		}
		first := s.Generated + 1
		drawnBefore := m.Pool().Stats.PacketNews + m.Pool().Stats.PacketReuses
		for range 10 {
			eng.RunStep()
		}
		drawn := m.Pool().Stats.PacketNews + m.Pool().Stats.PacketReuses - drawnBefore
		evs := rec.Events()
		if len(evs) != 10 {
			t.Fatalf("hooked=%v: %d flight records, want 10", hooked, len(evs))
		}
		for i, ev := range evs {
			if ev.Kind != obs.KindDrop || ev.Cause != obs.CauseQueueOverflow || ev.Node != 0 || ev.Peer != 1 ||
				ev.Flow != 1 || ev.Seq != first+uint64(i) {
				t.Fatalf("hooked=%v: record %d is %+v, want overflow drop of seq %d", hooked, i, ev, first+uint64(i))
			}
		}
		if !hooked {
			if drawn != 0 {
				t.Fatalf("unhooked overflow drew %d packets, want 0", drawn)
			}
			continue
		}
		if drawn != 10 || len(seqs) != 10 || seqs[0] != first || seqs[9] != first+9 {
			t.Fatalf("hooked overflow drew %d packets, hook saw seqs %v from %d", drawn, seqs, first)
		}
	}
}
