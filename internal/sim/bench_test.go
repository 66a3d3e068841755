package sim

import "testing"

// BenchmarkEngine exercises the event queue's schedule/fire/cancel churn:
// every fired event schedules a successor plus a second timer that is
// immediately cancelled — the pattern the MAC's backoff/ACK timers
// generate. allocs/op must stay at zero once the event pool is warm.
func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	en := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			en.Schedule(Microsecond, tick)
			t := en.Schedule(2*Microsecond, tick)
			t.Cancel()
		}
	}
	en.Schedule(0, tick)
	en.Run(Time(int64(b.N)+10) * Microsecond)
	if n != b.N {
		b.Fatalf("fired %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineDeepQueue measures heap operations with many pending
// events (the regime of dense topologies): push/pop against a queue that
// stays ~1024 entries deep.
func BenchmarkEngineDeepQueue(b *testing.B) {
	b.ReportAllocs()
	en := NewEngine(1)
	const depth = 1024
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N { // refill to keep the queue ~depth entries deep
			en.Schedule(Time(en.Uniform(1000))*Microsecond, tick)
		}
	}
	for i := 0; i < depth; i++ {
		en.Schedule(Time(en.Uniform(1000))*Microsecond, tick)
	}
	b.ResetTimer()
	for en.Pending() > 0 {
		en.RunStep()
	}
}

// Delays of the MAC-shaped load, taken from the 802.11b chain: a
// 1028-byte data frame's air time, an ACK's, SIFS, the ACK timeout and a
// backoff slot.
const (
	mixAir     = 8688 * Microsecond
	mixAckAir  = 304 * Microsecond
	mixSIFS    = 10 * Microsecond
	mixTimeout = 9022 * Microsecond
	mixSlot    = 20 * Microsecond
)

// mixStation is one station of the MAC-shaped load. A backoff on the
// heap (DIFS plus a random number of slots, frozen and re-armed half the
// time) wins access; the data frame's end, the ACK after SIFS and the
// ACK's end follow with fixed delays, and the ACK timeout armed with the
// data frame is cancelled when the ACK has gone.
type mixStation struct {
	en                          *Engine
	backoff, timeout            Timer
	wonFn, endFn, ackFn, doneFn func()
}

func newMixStation(en *Engine) *mixStation {
	s := &mixStation{en: en}
	s.wonFn, s.endFn, s.ackFn, s.doneFn = s.won, s.end, s.ack, s.done
	s.arm()
	return s
}

func (s *mixStation) arm() {
	s.backoff = s.en.Schedule(50*Microsecond+Time(s.en.Uniform(32))*mixSlot, s.wonFn)
	if s.en.Uniform(2) == 0 { // the medium went busy: freeze, resume later
		s.backoff.Cancel()
		s.backoff = s.en.Schedule(mixAir+Time(s.en.Uniform(32))*mixSlot, s.wonFn)
	}
}

func (s *mixStation) won() {
	s.en.ScheduleFixed(mixAir, s.endFn)
	s.timeout = s.en.ScheduleFixed(mixTimeout, s.doneFn)
}

func (s *mixStation) end() { s.en.ScheduleFixed(mixSIFS, s.ackFn) }

func (s *mixStation) ack() { s.en.ScheduleFixed(mixAckAir, s.doneFn) }

func (s *mixStation) done() {
	s.timeout.Cancel()
	s.arm()
}

// mixedEngine returns an engine running the MAC-shaped load on eight
// stations, warmed up so that its pools and lane rings have grown.
func mixedEngine() *Engine {
	en := NewEngine(1)
	for i := 0; i < 8; i++ {
		newMixStation(en)
	}
	en.Run(Second)
	return en
}

// BenchmarkEngineMixed measures one fired event of a MAC-shaped load
// (see mixStation): fixed-delay successors in lanes beside a variable
// backoff on the heap that is cancelled half the time. allocs/op is
// pinned at zero by TestEngineMixedAllocs.
func BenchmarkEngineMixed(b *testing.B) {
	b.ReportAllocs()
	en := mixedEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.RunStep()
	}
}

// TestEngineMixedAllocs pins BenchmarkEngineMixed's load at zero
// allocations per event once warm.
func TestEngineMixedAllocs(t *testing.T) {
	en := mixedEngine()
	if avg := testing.AllocsPerRun(5000, func() { en.RunStep() }); avg != 0 {
		t.Fatalf("MAC-shaped load allocates %.3f per event, want 0", avg)
	}
	if en.Cancelled() == 0 || en.nlanes < 4 {
		t.Fatalf("cancelled %d, lanes %d: the load should cancel timers and use four lanes", en.Cancelled(), en.nlanes)
	}
}
