package sim

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	en := NewEngine(1)
	var got []int
	en.Schedule(30*Microsecond, func() { got = append(got, 3) })
	en.Schedule(10*Microsecond, func() { got = append(got, 1) })
	en.Schedule(20*Microsecond, func() { got = append(got, 2) })
	en.Run(Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	en := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		en.Schedule(5*Microsecond, func() { got = append(got, i) })
	}
	en.Run(Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	en := NewEngine(1)
	fired := false
	e := en.Schedule(10*Microsecond, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	e.Cancel()
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	en.Run(Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel is a no-op.
	e.Cancel()
}

func TestCancelFromWithinEvent(t *testing.T) {
	en := NewEngine(1)
	fired := false
	var victim Timer
	en.Schedule(5*Microsecond, func() { victim.Cancel() })
	victim = en.Schedule(10*Microsecond, func() { fired = true })
	en.Run(Second)
	if fired {
		t.Fatal("victim fired despite cancellation")
	}
}

func TestNestedScheduling(t *testing.T) {
	en := NewEngine(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			en.Schedule(Microsecond, recur)
		}
	}
	en.Schedule(0, recur)
	en.Run(Second)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if en.Fired() != 100 {
		t.Fatalf("fired = %d, want 100", en.Fired())
	}
}

func TestRunHorizon(t *testing.T) {
	en := NewEngine(1)
	fired := false
	en.Schedule(2*Second, func() { fired = true })
	end := en.Run(1 * Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 1*Second {
		t.Fatalf("Run returned %v, want 1s", end)
	}
	if en.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", en.Pending())
	}
	// A later Run picks the event up.
	en.Run(3 * Second)
	if !fired {
		t.Fatal("event did not fire on the second Run")
	}
}

func TestStop(t *testing.T) {
	en := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		en.Schedule(Time(i)*Microsecond, func() {
			count++
			if count == 3 {
				en.Stop()
			}
		})
	}
	en.Run(Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
}

// ticker schedules an endless 1 µs event chain on en; each event calls
// hook first.
func ticker(en *Engine, hook func()) {
	var tick func()
	tick = func() {
		hook()
		en.Schedule(Microsecond, tick)
	}
	en.Schedule(0, tick)
}

// TestStopOnFromAnotherGoroutine pins the cross-goroutine stop: a flag
// raised by another goroutine ends an endless run at the next poll, and
// the clock stays where the loop stopped instead of jumping to the
// horizon. Run it under -race.
func TestStopOnFromAnotherGoroutine(t *testing.T) {
	const failsafe = 1 << 24
	en := NewEngine(1)
	var stop atomic.Bool
	en.StopOn(&stop)
	started := make(chan struct{})
	ticker(en, func() {
		switch en.Fired() {
		case 1:
			close(started)
		case failsafe:
			en.Stop()
		}
	})
	go func() {
		<-started
		stop.Store(true)
	}()
	end := en.Run(Time(math.MaxInt64))
	n := en.Fired()
	if n >= failsafe {
		t.Fatalf("the stop request was not honoured within %d events", n)
	}
	if n%(stopPollMask+1) != 0 {
		t.Errorf("stopped after %d events, want a multiple of the %d-event poll", n, stopPollMask+1)
	}
	if want := Time(n-1) * Microsecond; end != want || en.Now() != want {
		t.Errorf("Run returned %v (Now %v), want the last event's time %v", end, en.Now(), want)
	}
}

// TestStopOnBeforeRun pins that a request raised before Run starts is
// not lost: Run fires nothing and leaves the clock alone. Lowering the
// flag lets a later Run proceed as usual.
func TestStopOnBeforeRun(t *testing.T) {
	en := NewEngine(1)
	var stop atomic.Bool
	stop.Store(true)
	en.StopOn(&stop)
	for i := 1; i <= 5; i++ {
		en.Schedule(Time(i)*Microsecond, func() {})
	}
	if end := en.Run(Second); end != 0 || en.Fired() != 0 || en.Pending() != 5 {
		t.Fatalf("pre-stopped Run: end %v, fired %d, pending %d; want 0, 0, 5", end, en.Fired(), en.Pending())
	}
	stop.Store(false)
	if end := en.Run(Second); end != Second || en.Fired() != 5 {
		t.Fatalf("resumed Run: end %v, fired %d; want 1s, 5", end, en.Fired())
	}
}

// TestStopOnUnraisedIsInert pins that an attached but never raised flag
// changes nothing: the same random workload fires the same events, ends
// at the same time and leaves the RNG in the same state, across many
// polls.
func TestStopOnUnraisedIsInert(t *testing.T) {
	run := func(flag *atomic.Bool) (uint64, Time, int64) {
		en := NewEngine(7)
		en.StopOn(flag)
		ticker(en, func() {
			if en.Chance(0.5) {
				en.Schedule(Time(en.Uniform(50))*Microsecond, func() {})
			}
		})
		end := en.Run(50 * Millisecond)
		return en.Fired(), end, en.Rand().Int63()
	}
	var never atomic.Bool
	n0, end0, r0 := run(nil)
	n1, end1, r1 := run(&never)
	if n0 < 10*(stopPollMask+1) {
		t.Fatalf("workload fired only %d events; it must cross many polls", n0)
	}
	if n1 != n0 || end1 != end0 || r1 != r0 {
		t.Errorf("with an unraised flag: fired %d, end %v, rng %d; without: %d, %v, %d",
			n1, end1, r1, n0, end0, r0)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	en := NewEngine(1)
	var at Time
	en.Schedule(10*Microsecond, func() {
		en.ScheduleAt(0, func() { at = en.Now() })
	})
	en.Run(Second)
	if at != 10*Microsecond {
		t.Fatalf("past event ran at %v, want clamped to 10us", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		en := NewEngine(seed)
		var out []int
		for i := 0; i < 50; i++ {
			en.Schedule(Time(en.Uniform(1000))*Microsecond, func() {
				out = append(out, en.Uniform(100))
			})
		}
		en.Run(Second)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRunStep(t *testing.T) {
	en := NewEngine(1)
	n := 0
	en.Schedule(Microsecond, func() { n++ })
	en.Schedule(2*Microsecond, func() { n++ })
	if !en.RunStep() || n != 1 {
		t.Fatal("first step")
	}
	if !en.RunStep() || n != 2 {
		t.Fatal("second step")
	}
	if en.RunStep() {
		t.Fatal("step on empty queue reported an event")
	}
}

// TestFingerprint checks that the fingerprint follows the fired keys:
// Run and RunStep fold the same events alike, and the same instants
// scheduled in the other order give another fingerprint.
func TestFingerprint(t *testing.T) {
	world := func(first, second Time) *Engine {
		en := NewEngine(1)
		en.Schedule(first, func() { en.ScheduleFixed(Microsecond, func() {}) })
		en.Schedule(second, func() {})
		return en
	}
	run, step := world(Microsecond, 2*Microsecond), world(Microsecond, 2*Microsecond)
	run.Run(Second)
	for step.RunStep() {
	}
	if run.Fingerprint() != step.Fingerprint() || run.Fired() != 3 || step.Fired() != 3 {
		t.Fatalf("Run fired %d with fingerprint %#x, RunStep %d with %#x",
			run.Fired(), run.Fingerprint(), step.Fired(), step.Fingerprint())
	}
	swapped := world(2*Microsecond, Microsecond)
	swapped.Run(Second)
	if swapped.Fingerprint() == run.Fingerprint() {
		t.Fatal("a different schedule order left the fingerprint unchanged")
	}
	if NewEngine(1).Fingerprint() != 0 {
		t.Fatal("an engine that fired nothing has a fingerprint")
	}
}

func TestUniformBounds(t *testing.T) {
	en := NewEngine(7)
	for i := 0; i < 10000; i++ {
		v := en.Uniform(32)
		if v < 0 || v >= 32 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(0) did not panic")
		}
	}()
	en.Uniform(0)
}

func TestChance(t *testing.T) {
	en := NewEngine(7)
	if en.Chance(0) {
		t.Fatal("Chance(0) returned true")
	}
	if !en.Chance(1) {
		t.Fatal("Chance(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if en.Chance(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Chance(0.3) frequency %v", frac)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatal("FromSeconds")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds")
	}
	if (1500 * Millisecond).String() != "1.500000s" {
		t.Fatalf("String: %s", (1500 * Millisecond).String())
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delaysRaw []uint32) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		if len(delaysRaw) > 500 {
			delaysRaw = delaysRaw[:500]
		}
		en := NewEngine(1)
		var fired []Time
		for _, d := range delaysRaw {
			en.Schedule(Time(d%1e9), func() { fired = append(fired, en.Now()) })
		}
		en.Run(2 * Second)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to
// fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(mask []bool) bool {
		if len(mask) > 200 {
			mask = mask[:200]
		}
		en := NewEngine(1)
		fired := make([]bool, len(mask))
		events := make([]Timer, len(mask))
		for i := range mask {
			i := i
			events[i] = en.Schedule(Time(i+1)*Microsecond, func() { fired[i] = true })
		}
		for i, cancel := range mask {
			if cancel {
				events[i].Cancel()
			}
		}
		en.Run(Second)
		for i, cancel := range mask {
			if fired[i] == cancel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
