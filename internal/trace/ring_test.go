package trace

import (
	"slices"
	"testing"

	"ezflow/internal/sim"
	"ezflow/internal/stats"
)

func TestRingBatchFlush(t *testing.T) {
	r := NewRing(4)
	var s stats.Series
	for i := 0; i < 4; i++ {
		r.Append(sim.Time(i)*sim.Second, float64(i))
	}
	if !r.Full() {
		t.Fatal("ring should be full after cap appends")
	}
	r.FlushTo(&s)
	if r.n != 0 || s.Len() != 4 {
		t.Fatalf("after flush: ring %d, series %d; want 0, 4", r.n, s.Len())
	}
	r.Append(9*sim.Second, 9)
	r.FlushTo(&s)
	if s.Len() != 5 {
		t.Fatalf("partial flush lost samples: %d", s.Len())
	}
	for i, p := range s.Points[:4] {
		if p.V != float64(i) {
			t.Fatalf("sample order corrupted at %d: %v", i, s.Points)
		}
	}
	if s.Points[4].V != 9 {
		t.Fatalf("late sample wrong: %v", s.Points[4])
	}
}

func TestRingOverflowPanics(t *testing.T) {
	r := NewRing(2)
	r.Append(0, 1)
	r.Append(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Append past capacity did not panic")
		}
	}()
	r.Append(0, 3)
}

// TestRecorder checks the end-to-end sampling path: samples at every
// period, batched through the ring, fully flushed by Stop, and no samples
// after Stop.
func TestRecorder(t *testing.T) {
	eng := sim.NewEngine(1)
	v := 0.0
	rec := NewRecorder(eng, "probe", sim.Second, 0, func() float64 { v++; return v })
	eng.Run(10 * sim.Second)
	rec.Stop()
	if rec.Series.Len() != 10 {
		t.Fatalf("samples = %d, want 10", rec.Series.Len())
	}
	for i, p := range rec.Series.Points {
		if p.T != sim.Time(i+1)*sim.Second || p.V != float64(i+1) {
			t.Fatalf("sample %d = %+v", i, p)
		}
	}
	eng.Run(20 * sim.Second)
	if rec.Series.Len() != 10 {
		t.Fatal("recorder kept sampling after Stop")
	}
}

// TestRecorderStopFlushesPartialRing runs long enough for one full ring
// flush and then stops mid-block: Stop must drain the partial ring, so
// the series holds every sample exactly once, in time order.
func TestRecorderStopFlushesPartialRing(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(eng, "probe", sim.Second, 0, func() float64 { return 1 })
	total := DefaultRingSize + 44 // one in-run flush plus a partial block
	eng.Run(sim.Time(total) * sim.Second)
	if rec.Series.Len() != DefaultRingSize {
		// Exactly one in-run flush: the ring drains lazily when the
		// overflowing append arrives, leaving the 44-sample tail buffered.
		t.Fatalf("pre-Stop samples = %d, want %d", rec.Series.Len(), DefaultRingSize)
	}
	rec.Stop()
	if rec.Series.Len() != total {
		t.Fatalf("post-Stop samples = %d, want %d", rec.Series.Len(), total)
	}
	for i, p := range rec.Series.Points {
		if p.T != sim.Time(i+1)*sim.Second {
			t.Fatalf("sample %d out of order: %+v", i, p)
		}
	}
	rec.Stop() // idempotent: a second Stop must not duplicate samples
	if rec.Series.Len() != total {
		t.Fatalf("second Stop changed the series: %d", rec.Series.Len())
	}
}

// TestRecorderRegisteredAfterStart creates the recorder once the engine
// has already advanced: sampling must begin one period after attachment,
// not at virtual time zero.
func TestRecorderRegisteredAfterStart(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.ScheduleFunc(0, func() {}) // keep the clock event-driven
	eng.Run(5 * sim.Second)
	if eng.Now() != 5*sim.Second {
		t.Fatalf("engine clock = %v, want 5s", eng.Now())
	}
	rec := NewRecorder(eng, "late", sim.Second, 0, func() float64 { return float64(eng.Now() / sim.Second) })
	eng.Run(10 * sim.Second)
	rec.Stop()
	if rec.Series.Len() != 5 {
		t.Fatalf("late recorder samples = %d, want 5", rec.Series.Len())
	}
	for i, p := range rec.Series.Points {
		wantT := sim.Time(6+i) * sim.Second
		if p.T != wantT || p.V != float64(6+i) {
			t.Fatalf("late sample %d = %+v, want t=%v v=%d", i, p, wantT, 6+i)
		}
	}
}

// TestRecorderSteadyStateAllocs: appends between flushes are free, and a
// whole run allocates only O(n/ringsize) block growths.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(eng, "probe", sim.Second, 0, func() float64 { return 1 })
	eng.Run(sim.Time(DefaultRingSize) * sim.Second / 2) // half-fill the ring
	if avg := testing.AllocsPerRun(50, func() {
		eng.Run(eng.Now() + sim.Second)
	}); avg != 0 {
		t.Fatalf("in-ring sampling allocates %.1f objects per tick, want 0", avg)
	}
	rec.Stop()
}

// TestRecorderRingSizeInvariant: the ring size only decides when samples
// are flushed, never which ones the series ends up with, so callers may
// size it to the samples a run can take.
func TestRecorderRingSizeInvariant(t *testing.T) {
	series := func(ring int) []stats.Point {
		eng := sim.NewEngine(1)
		v := 0.0
		rec := NewRecorder(eng, "probe", sim.Second, ring, func() float64 { v += 0.5; return v })
		eng.Run(37 * sim.Second)
		rec.Stop()
		return rec.Series.Points
	}
	want := series(0)
	if len(want) != 37 {
		t.Fatalf("default ring: %d samples, want 37", len(want))
	}
	for _, ring := range []int{1, 3, 37, 38} {
		if got := series(ring); !slices.Equal(got, want) {
			t.Fatalf("ring %d: series differs from the default ring's", ring)
		}
	}
}
