package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"ezflow/internal/sim"
)

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("fam", []string{"x", "y", "z"})
	cv.Inc(1)
	cv.Inc(2)
	cv.Inc(2)
	if len(cv.v) != 3 || cv.v[0] != 0 || cv.v[1] != 1 || cv.v[2] != 2 {
		t.Fatalf("CounterVec slots = %v, want [0 1 2]", cv.v)
	}
}

func TestNilSafety(t *testing.T) {
	// Every increment/read path must be a no-op on nil receivers: this is
	// the disabled-observability contract the hot paths rely on.
	var r *Registry
	cv := r.CounterVec("y", []string{"a"})
	h := r.Histogram("z", []float64{1})
	r.Gauge("g", func() float64 { return 1 })
	cv.Inc(0)
	h.Observe(0.5)
	var fr *FlightRecorder
	fr.Record(0, KindEnqueue, CauseNone, 1, 2, 1, 0)
	if cv != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if fr.Total() != 0 || fr.Overwritten() != 0 || fr.Events() != nil {
		t.Fatal("nil recorder must read as empty")
	}
	if s := (*Registry)(nil).Snapshot(0); s != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var s *Snapshot
	if _, ok := s.Get("x"); ok {
		t.Fatal("nil snapshot Get must miss")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"vec":       func(r *Registry) { r.CounterVec("vec", []string{"a", "a"}) },
		"gauge":     func(r *Registry) { r.Gauge("dup", func() float64 { return 0 }) },
		"histogram": func(r *Registry) { r.Histogram("dup", []float64{1}) },
	}
	for name, reg := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			r.Gauge("dup", func() float64 { return 0 })
			defer func() {
				if recover() == nil {
					t.Fatalf("%s reusing a name must panic", name)
				}
			}()
			reg(r)
		})
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []float64{1, 10})
	for _, x := range []float64{0.5, 1, 1.5, 10, 11, 100} {
		h.Observe(x)
	}
	if h.n != 6 {
		t.Fatalf("count = %d, want 6", h.n)
	}
	if h.sum != 124 {
		t.Fatalf("sum = %g, want 124", h.sum)
	}
	s := r.Snapshot(0)
	// Bounds are inclusive upper edges; _le_ series is cumulative.
	for name, want := range map[string]float64{
		"d_count": 6, "d_sum": 124, "d_le_1": 2, "d_le_10": 4,
	} {
		if got, ok := s.Get(name); !ok || got != want {
			t.Errorf("%s = %g (found %v), want %g", name, got, ok, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds must panic")
		}
	}()
	r.Histogram("bad", []float64{2, 1})
}

func TestSnapshotOrderingAndLookup(t *testing.T) {
	// Register deliberately out of name order, across all three metric
	// kinds; the snapshot must come out sorted regardless.
	r := NewRegistry()
	r.Gauge("z.gauge", func() float64 { return 9 })
	r.CounterVec("a.vec", []string{"n2", "n1"}).Inc(0)
	r.Histogram("q.hist", []float64{5}).Observe(2)
	s := r.Snapshot(sim.FromSeconds(1.5))
	if s.AtSec != 1.5 {
		t.Fatalf("AtSec = %g, want 1.5", s.AtSec)
	}
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i-1].Name >= s.Metrics[i].Name {
			t.Fatalf("metrics not strictly sorted: %q before %q",
				s.Metrics[i-1].Name, s.Metrics[i].Name)
		}
	}
	if v, ok := s.Get("a.vec.n2"); !ok || v != 1 {
		t.Fatalf("Get(a.vec.n2) = %g, %v; want 1, true", v, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) must miss")
	}

	// Two registries built in different orders serialize identically.
	r2 := NewRegistry()
	r2.Histogram("q.hist", []float64{5}).Observe(2)
	r2.CounterVec("a.vec", []string{"n2", "n1"}).Inc(0)
	r2.Gauge("z.gauge", func() float64 { return 9 })
	b1, _ := json.Marshal(s)
	b2, _ := json.Marshal(r2.Snapshot(sim.FromSeconds(1.5)))
	if !bytes.Equal(b1, b2) {
		t.Fatalf("registration order leaked into snapshot bytes:\n%s\n%s", b1, b2)
	}
}

func TestSnapshotWriters(t *testing.T) {
	r := NewRegistry()
	r.Gauge("one", func() float64 { return 1 })
	s := r.Snapshot(sim.Second)
	var jb bytes.Buffer
	if err := s.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if v, ok := back.Get("one"); !ok || v != 1 {
		t.Fatalf("WriteJSON round trip: one = %g, %v; want 1, true", v, ok)
	}
}
