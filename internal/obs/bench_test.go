package obs

import (
	"testing"
)

// The BenchmarkObs* benchmarks pin the observability cost model in
// BENCH_PR6.json: enabled instruments are allocation-free on the hot
// path, and the disabled (nil-receiver) hooks are close to free. make
// bench gates the alloc columns at zero.

func BenchmarkObsCounterVecInc(b *testing.B) {
	cv := NewRegistry().CounterVec("bench.vec", []string{"a", "b", "c", "d"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv.Inc(i & 3)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist", []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&127) * 0.1)
	}
}

func BenchmarkObsFlightRecord(b *testing.B) {
	fr := NewFlightRecorder(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr.Record(1, KindTxAttempt, CauseNone, 1, 2, 1, uint64(i))
	}
}

// BenchmarkObsDisabledHooks measures the whole disabled path at once —
// every instrument nil, exactly what an unobserved scenario's MAC/PHY
// hot loops pay per event.
func BenchmarkObsDisabledHooks(b *testing.B) {
	var (
		cv *CounterVec
		h  *Histogram
		fr *FlightRecorder
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv.Inc(0)
		h.Observe(1)
		fr.Record(1, KindTxAttempt, CauseNone, 1, 2, 1, uint64(i))
	}
}

// TestDisabledHooksDoNotAllocate is the same pin as the benchmark but
// enforced in the ordinary test suite, so a regression fails go test,
// not just make bench.
func TestDisabledHooksDoNotAllocate(t *testing.T) {
	var (
		cv *CounterVec
		h  *Histogram
		fr *FlightRecorder
	)
	allocs := testing.AllocsPerRun(1000, func() {
		cv.Inc(0)
		h.Observe(1)
		fr.Record(1, KindTxAttempt, CauseNone, 1, 2, 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled hooks allocate %g allocs/op, want 0", allocs)
	}
}

// TestEnabledHooksDoNotAllocate pins the enabled steady state too: once
// registered, increments and ring records never allocate.
func TestEnabledHooksDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("alloc.vec", []string{"a", "b"})
	h := r.Histogram("alloc.hist", []float64{1, 10})
	fr := NewFlightRecorder(64)
	for i := 0; i < 128; i++ { // fill the ring so Record overwrites
		fr.Record(1, KindEnqueue, CauseNone, 1, 2, 1, uint64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		cv.Inc(1)
		h.Observe(5)
		fr.Record(1, KindTxAttempt, CauseNone, 1, 2, 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled hooks allocate %g allocs/op, want 0", allocs)
	}
}
