package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ezflow/internal/sim"
)

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 {
		t.Fatal("N")
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7)
	}
	if math.Abs(w.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatal("std")
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 {
		t.Fatal("empty accumulator must be zero")
	}
	w.Add(3)
	if w.Var() != 0 {
		t.Fatal("single-sample variance must be zero")
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		x    []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{100, 100}, 1},
		{nil, 1},
		{[]float64{0, 0}, 1},
	}
	for _, c := range cases {
		if got := JainIndex(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// Property: Jain's index lies in (0, 1] for any non-negative input with at
// least one positive entry, and equals 1 iff all positive entries are equal
// and there are no zeros.
func TestPropertyJainBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		pos := false
		for i, v := range raw {
			x[i] = float64(v)
			if v > 0 {
				pos = true
			}
		}
		fi := JainIndex(x)
		if !pos {
			return fi == 1
		}
		return fi > 0 && fi <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Second, float64(i))
	}
	if s.Len() != 10 {
		t.Fatal("len")
	}
	if s.Mean() != 4.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 9 {
		t.Fatal("max")
	}
	w := s.Window(2*sim.Second, 5*sim.Second)
	if w.Len() != 3 || w.Points[0].V != 2 || w.Points[2].V != 4 {
		t.Fatalf("window: %+v", w.Points)
	}
	if (&Series{}).Mean() != 0 || (&Series{}).Max() != 0 || (&Series{}).Std() != 0 {
		t.Fatal("empty series stats must be zero")
	}
}

func TestSeriesStd(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(0, v)
	}
	if math.Abs(s.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("std = %v", s.Std())
	}
}

func TestSeriesPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(0, float64(i))
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("p50 = %v", p)
	}
	if (&Series{}).Percentile(50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestFlowMeterBinning(t *testing.T) {
	fm := NewFlowMeter(1 * sim.Second)
	// 10 packets of 1000 B in second 0, none in second 1, 5 in second 2.
	for i := 0; i < 10; i++ {
		fm.OnDeliver(sim.Time(i)*100*sim.Millisecond, 0, 1000)
	}
	for i := 0; i < 5; i++ {
		fm.OnDeliver(2*sim.Second+sim.Time(i)*100*sim.Millisecond, 2*sim.Second, 1000)
	}
	fm.Close(3 * sim.Second)
	pts := fm.Throughput.Points
	if len(pts) != 3 {
		t.Fatalf("bins = %d, want 3", len(pts))
	}
	if math.Abs(pts[0].V-80) > 1e-9 { // 10*1000*8 bits / 1 s / 1000 = 80 kb/s
		t.Fatalf("bin0 = %v, want 80", pts[0].V)
	}
	if pts[1].V != 0 {
		t.Fatalf("bin1 = %v, want 0", pts[1].V)
	}
	if math.Abs(pts[2].V-40) > 1e-9 {
		t.Fatalf("bin2 = %v, want 40", pts[2].V)
	}
	if fm.Delivered != 15 || fm.BytesTotal != 15000 {
		t.Fatal("totals")
	}
}

func TestFlowMeterDelay(t *testing.T) {
	fm := NewFlowMeter(sim.Second)
	fm.OnDeliver(5*sim.Second, 2*sim.Second, 1000)
	if len(fm.Delay.Points) != 1 || fm.Delay.Points[0].V != 3 {
		t.Fatalf("delay series: %+v", fm.Delay.Points)
	}
}

func TestFlowMeterDefaultBin(t *testing.T) {
	fm := NewFlowMeter(0)
	if fm.bin != 10*sim.Second {
		t.Fatal("default bin")
	}
}

// Property: Welford mean/std agree with the naive two-pass computation.
func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var sq float64
		for _, v := range raw {
			d := float64(v) - mean
			sq += d * d
		}
		naiveVar := sq / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-naiveVar) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: FlowMeter conserves bytes — the sum over bins equals the total
// delivered bytes, for any arrival pattern.
func TestPropertyFlowMeterConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		fm := NewFlowMeter(sim.Second)
		var total float64
		at := sim.Time(0)
		for _, v := range raw {
			at += sim.Time(v) * sim.Microsecond * 100
			fm.OnDeliver(at, 0, 1000)
			total += 1000 * 8
		}
		fm.Close(at + sim.Second)
		var binned float64
		for _, p := range fm.Throughput.Points {
			binned += p.V * 1000 // kb/s * 1 s = kilobits
		}
		return math.Abs(binned-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestWelfordMergeIdentity checks the parallel-merge contract: splitting
// a stream at any cut point and merging the two partial accumulators
// reproduces the single-stream moments exactly (up to float rounding).
func TestWelfordMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64()*17 + 3
	}
	var whole Welford
	for _, x := range xs {
		whole.Add(x)
	}
	for _, cut := range []int{0, 1, 128, 256, len(xs)} {
		var a, b Welford
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.n != whole.n {
			t.Fatalf("cut %d: N = %d, want %d", cut, a.n, whole.n)
		}
		if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
			t.Errorf("cut %d: mean %v, want %v", cut, a.Mean(), whole.Mean())
		}
		if math.Abs(a.Var()-whole.Var()) > 1e-9*whole.Var() {
			t.Errorf("cut %d: var %v, want %v", cut, a.Var(), whole.Var())
		}
	}
}

func TestWelfordMergeManyShards(t *testing.T) {
	// Merging k single-sample shards must equal streaming Add, the way
	// the campaign engine pools per-replication bin statistics.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var whole, merged Welford
	for _, x := range xs {
		whole.Add(x)
		var shard Welford
		shard.Add(x)
		merged.Merge(shard)
	}
	if merged.n != whole.n || math.Abs(merged.Var()-whole.Var()) > 1e-12 {
		t.Fatalf("sharded merge: n=%d var=%v, want n=%d var=%v",
			merged.n, merged.Var(), whole.n, whole.Var())
	}
	// Identity element: merging a zero accumulator changes nothing.
	before := merged
	merged.Merge(Welford{})
	if merged != before {
		t.Error("merging the zero Welford is not the identity")
	}
	var zero Welford
	zero.Merge(whole)
	if zero != whole {
		t.Error("merging into the zero Welford must copy")
	}
}

func TestSummarize(t *testing.T) {
	var w Welford
	if s := w.Summarize(); s.N != 0 || s.CI95 != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	s := w.Summarize()
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary moments: %+v", s)
	}
	// df = 7 -> t = 2.365.
	want := 2.365 * s.Std / math.Sqrt(8)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", s.CI95, want)
	}
	// Large samples converge to the normal critical value.
	var big Welford
	for i := 0; i < 1000; i++ {
		big.Add(float64(i % 10))
	}
	bs := big.Summarize()
	want = 1.96 * bs.Std / math.Sqrt(1000)
	if math.Abs(bs.CI95-want) > 1e-9 {
		t.Errorf("large-sample CI95 = %v, want %v", bs.CI95, want)
	}
}
