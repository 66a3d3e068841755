package ezflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ezflow/internal/sim"
)

// fakeCW is a CWSetter backed by a plain int.
type fakeCW struct{ cw int }

func (f *fakeCW) CWmin() int     { return f.cw }
func (f *fakeCW) SetCWmin(v int) { f.cw = v }

func newTestCAA(initCW int) (*CAA, *fakeCW) {
	cw := &fakeCW{cw: initCW}
	c := NewCAA(DefaultCAAConfig(), cw, func() sim.Time { return 0 })
	return c, cw
}

// recordDecisions collects every decision c makes through OnDecision.
func recordDecisions(c *CAA) *[]Decision {
	var ds []Decision
	c.OnDecision = func(d Decision) { ds = append(ds, d) }
	return &ds
}

// feed sends one full decision window of identical samples.
func feed(c *CAA, value int) {
	for i := 0; i < c.cfg.Window; i++ {
		c.OnSample(Sample{Value: value})
	}
}

func TestCAANoDecisionBeforeWindow(t *testing.T) {
	c, cw := newTestCAA(32)
	ds := recordDecisions(c)
	for i := 0; i < DefaultWindow-1; i++ {
		c.OnSample(Sample{Value: 100})
	}
	if len(*ds) != 0 || cw.cw != 32 {
		t.Fatal("decision fired before 50 samples accumulated")
	}
	c.OnSample(Sample{Value: 100})
	if len(*ds) != 1 {
		t.Fatal("50th sample did not trigger a decision")
	}
}

func TestCAADoubleAfterLog2CWSignals(t *testing.T) {
	// cw = 32 → log2 = 5: the 5th consecutive overutilisation decision
	// doubles cw; earlier ones must not.
	c, cw := newTestCAA(32)
	for i := 1; i <= 4; i++ {
		feed(c, 100)
		if cw.cw != 32 {
			t.Fatalf("cw changed after %d signals, needs 5", i)
		}
	}
	feed(c, 100)
	if cw.cw != 64 {
		t.Fatalf("cw = %d after 5 overutilisation signals, want 64", cw.cw)
	}
}

func TestCAAHalveAfter15MinusLog2Signals(t *testing.T) {
	// cw = 1024 → log2 = 10: the (15-10)=5th consecutive underutilisation
	// decision halves cw.
	c, cw := newTestCAA(1024)
	for i := 1; i <= 4; i++ {
		feed(c, 0)
		if cw.cw != 1024 {
			t.Fatalf("cw changed after %d signals, needs 5", i)
		}
	}
	feed(c, 0)
	if cw.cw != 512 {
		t.Fatalf("cw = %d after 5 underutilisation signals, want 512", cw.cw)
	}
}

func TestCAAFairnessAsymmetry(t *testing.T) {
	// §3.3: a node with high cw reacts quicker to underutilisation and
	// slower to overutilisation than a node with low cw.
	decisionsToHalve := func(init int) int {
		c, cw := newTestCAA(init)
		n := 0
		for cw.cw == init {
			feed(c, 0)
			n++
			if n > 20 {
				break
			}
		}
		return n
	}
	decisionsToDouble := func(init int) int {
		c, cw := newTestCAA(init)
		n := 0
		for cw.cw == init {
			feed(c, 100)
			n++
			if n > 20 {
				break
			}
		}
		return n
	}
	if !(decisionsToHalve(1024) < decisionsToHalve(32)) {
		t.Fatal("high-cw node should react faster to underutilisation")
	}
	if !(decisionsToDouble(1024) > decisionsToDouble(32)) {
		t.Fatal("high-cw node should react slower to overutilisation")
	}
}

func TestCAAMiddleBandResetsCounters(t *testing.T) {
	c, cw := newTestCAA(32)
	// Four overutilisation signals, then one in-band decision, then four
	// more: cw must never double (counter was reset).
	for i := 0; i < 4; i++ {
		feed(c, 100)
	}
	feed(c, 5) // bmin < 5 < bmax: desired band
	for i := 0; i < 4; i++ {
		feed(c, 100)
	}
	if cw.cw != 32 {
		t.Fatalf("cw = %d: counters not reset by in-band decision", cw.cw)
	}
}

func TestCAAOppositeSignalResetsCounter(t *testing.T) {
	c, cw := newTestCAA(32)
	for i := 0; i < 4; i++ {
		feed(c, 100)
	}
	feed(c, 0) // underutilisation resets countup
	for i := 0; i < 4; i++ {
		feed(c, 100)
	}
	if cw.cw != 32 {
		t.Fatalf("cw = %d: countup survived an underutilisation signal", cw.cw)
	}
}

func TestCAABounds(t *testing.T) {
	c, cw := newTestCAA(DefaultMinCW)
	// Hammer underutilisation: cw must stay at MinCW.
	for i := 0; i < 50; i++ {
		feed(c, 0)
	}
	if cw.cw != DefaultMinCW {
		t.Fatalf("cw = %d below MinCW", cw.cw)
	}
	// Hammer overutilisation: cw must cap at MaxCW.
	for i := 0; i < 500; i++ {
		feed(c, 100)
	}
	if cw.cw != DefaultMaxCW {
		t.Fatalf("cw = %d, want MaxCW %d", cw.cw, DefaultMaxCW)
	}
}

func TestCAAInitialClamp(t *testing.T) {
	low := &fakeCW{cw: 2}
	NewCAA(DefaultCAAConfig(), low, func() sim.Time { return 0 })
	if low.cw != DefaultMinCW {
		t.Fatalf("initial cw %d not clamped up to MinCW", low.cw)
	}
	high := &fakeCW{cw: 1 << 20}
	NewCAA(DefaultCAAConfig(), high, func() sim.Time { return 0 })
	if high.cw != DefaultMaxCW {
		t.Fatalf("initial cw %d not clamped down to MaxCW", high.cw)
	}
}

func TestCAADecisionTrace(t *testing.T) {
	c, _ := newTestCAA(32)
	ds := recordDecisions(c)
	feed(c, 7)
	if len(*ds) != 1 {
		t.Fatal("decision not recorded")
	}
	d := (*ds)[0]
	if d.Avg != 7 || d.CW != 32 || d.Changed {
		t.Fatalf("decision = %+v", d)
	}
	if len(c.samples) != 0 {
		t.Fatal("samples not flushed after decision")
	}
}

func TestCAAAveragingNotMedian(t *testing.T) {
	// 49 samples of 0 and one of 5000: average 100 > bmax even though
	// most samples are low — the CAA works on the mean, as Algorithm 1
	// specifies.
	c, _ := newTestCAA(32)
	ds := recordDecisions(c)
	for i := 0; i < 49; i++ {
		c.OnSample(Sample{Value: 0})
	}
	c.OnSample(Sample{Value: 5000})
	if len(*ds) != 1 {
		t.Fatal("no decision")
	}
	if (*ds)[0].Avg != 100 {
		t.Fatalf("avg = %v, want 100", (*ds)[0].Avg)
	}
}

// Property: under any sample stream, cw remains a power of two within
// [MinCW, MaxCW].
func TestPropertyCAAInvariants(t *testing.T) {
	isPow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	f := func(samples []uint8) bool {
		c, cw := newTestCAA(32)
		for _, s := range samples {
			c.OnSample(Sample{Value: int(s)})
			if cw.cw < DefaultMinCW || cw.cw > DefaultMaxCW || !isPow2(cw.cw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}
