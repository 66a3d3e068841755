package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refEngine is the heap-only engine the lanes were added beside, kept as
// the reference FuzzEngineOrder holds Engine to: every event on one
// index-tracked 4-ary heap ordered by (at, seq), cancelled events removed
// at once.
type refEngine struct {
	now       Time
	queue     []*refEvent
	seq       uint64
	halted    bool
	fired     uint64
	cancelled uint64
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, -1 when not queued
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (en *refEngine) swap(i, j int) {
	q := en.queue
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}

func (en *refEngine) up(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(en.queue[i], en.queue[p]) {
			return
		}
		en.swap(i, p)
		i = p
	}
}

func (en *refEngine) down(i int) {
	for {
		m := i
		for c := 4*i + 1; c <= 4*i+4 && c < len(en.queue); c++ {
			if refLess(en.queue[c], en.queue[m]) {
				m = c
			}
		}
		if m == i {
			return
		}
		en.swap(i, m)
		i = m
	}
}

func (en *refEngine) remove(i int) *refEvent {
	e := en.queue[i]
	n := len(en.queue) - 1
	en.swap(i, n)
	en.queue = en.queue[:n]
	if i < n {
		en.down(i)
		en.up(i)
	}
	e.index = -1
	return e
}

// schedule is the old Schedule: a negative delay fires now, a past time
// is clamped to the present.
func (en *refEngine) schedule(delay Time, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	at := en.now + delay
	if at < en.now {
		at = en.now
	}
	en.seq++
	e := &refEvent{at: at, seq: en.seq, fn: fn, index: len(en.queue)}
	en.queue = append(en.queue, e)
	en.up(e.index)
	return e
}

func (en *refEngine) cancel(e *refEvent) {
	if e.index < 0 {
		return
	}
	en.remove(e.index)
	en.cancelled++
}

func (en *refEngine) fire() {
	e := en.remove(0)
	en.now = e.at
	en.fired++
	e.fn()
}

func (en *refEngine) run(until Time) Time {
	en.halted = false
	for len(en.queue) > 0 && !en.halted && en.queue[0].at <= until {
		en.fire()
	}
	if en.now < until && !en.halted {
		en.now = until
	}
	return en.now
}

func (en *refEngine) runStep() bool {
	if len(en.queue) == 0 {
		return false
	}
	en.fire()
	return true
}

// orderEngine is what the differential harness drives: Engine and
// refEngine behind one interface. fixed says the delay is one of the
// lane delays; handle says whether the side keeps the returned Timer.
// Kept handles are numbered in schedule order.
type orderEngine interface {
	now() Time
	schedule(fixed, handle bool, delay Time, fn func())
	cancel(h int)
	timer(h int) (Time, bool)
	handles() int
	runStep() bool
	run(until Time) Time
	stop()
	counts() [4]uint64 // fired, scheduled, cancelled, pending
}

type laneSide struct {
	en *Engine
	ts []Timer
}

func (s *laneSide) now() Time { return s.en.Now() }
func (s *laneSide) schedule(fixed, handle bool, d Time, fn func()) {
	var t Timer
	if fixed {
		t = s.en.ScheduleFixed(d, fn)
	} else {
		t = s.en.Schedule(d, fn)
	}
	if handle {
		s.ts = append(s.ts, t)
	}
}
func (s *laneSide) cancel(h int)             { s.ts[h].Cancel() }
func (s *laneSide) timer(h int) (Time, bool) { return s.ts[h].At() }
func (s *laneSide) handles() int             { return len(s.ts) }
func (s *laneSide) runStep() bool            { return s.en.RunStep() }
func (s *laneSide) run(until Time) Time      { return s.en.Run(until) }
func (s *laneSide) stop()                    { s.en.Stop() }
func (s *laneSide) counts() [4]uint64 {
	en := s.en
	return [4]uint64{en.Fired(), en.Scheduled(), en.Cancelled(), uint64(en.Pending())}
}

type refSide struct {
	en refEngine
	ts []*refEvent
}

func (s *refSide) now() Time { return s.en.now }
func (s *refSide) schedule(_, handle bool, d Time, fn func()) {
	e := s.en.schedule(d, fn)
	if handle {
		s.ts = append(s.ts, e)
	}
}
func (s *refSide) cancel(h int) { s.en.cancel(s.ts[h]) }
func (s *refSide) timer(h int) (Time, bool) {
	e := s.ts[h]
	return e.at, e.index >= 0
}
func (s *refSide) handles() int        { return len(s.ts) }
func (s *refSide) runStep() bool       { return s.en.runStep() }
func (s *refSide) run(until Time) Time { return s.en.run(until) }
func (s *refSide) stop()               { s.en.halted = true }
func (s *refSide) counts() [4]uint64 {
	en := &s.en
	return [4]uint64{en.fired, en.seq, en.cancelled, uint64(len(en.queue))}
}

// orderDelays are the fixed delays the harness draws from: more than
// maxLanes of them, so lanes fill, re-key and overflow to the heap, plus
// 0 (same-instant ties) and a delay whose fire time overflows once the
// clock has moved.
var orderDelays = [...]Time{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, math.MaxInt64}

// playOrder decodes data into engine operations, applies them to en and
// returns the log of everything observable: which event fired when, and
// after every operation the clock, the counters and each handle's
// Pending/At (-1 when not pending). Events react to firing as the MAC
// does, by scheduling a successor, cancelling a timer or stopping the
// run, as the byte at their id says; the schedule budget keeps every Run
// finite.
func playOrder(en orderEngine, data []byte) []int64 {
	var log []int64
	budget := 4 * len(data)
	id := 0
	var sched func(op, arg byte)
	sched = func(op, arg byte) {
		if budget == 0 {
			return
		}
		budget--
		id++
		me := id
		react := data[me%len(data)]
		fixed := op&1 == 0
		d := Time(arg)
		if fixed {
			d = orderDelays[int(arg)%len(orderDelays)]
		}
		en.schedule(fixed, op&2 == 0, d, func() {
			log = append(log, -2, int64(me), int64(en.now()))
			switch react % 8 {
			case 0, 1:
				sched(react>>3, react)
			case 2:
				if n := en.handles(); n > 0 {
					en.cancel(int(react>>3) % n)
				}
			case 3:
				en.stop()
			}
		})
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 6 {
		case 0, 1:
			sched(op>>3, arg)
		case 2:
			if n := en.handles(); n > 0 {
				en.cancel(int(arg) % n)
			}
		case 3:
			log = append(log, -3)
			if !en.runStep() {
				log = append(log, -4)
			}
		case 4:
			log = append(log, -5, int64(en.run(en.now()+Time(arg))))
		case 5:
			if arg == 255 {
				log = append(log, -5, int64(en.run(math.MaxInt64)))
			} else {
				en.stop()
			}
		}
		c := en.counts()
		log = append(log, -6, int64(en.now()), int64(c[0]), int64(c[1]), int64(c[2]), int64(c[3]))
		for h := 0; h < en.handles(); h++ {
			at, ok := en.timer(h)
			if !ok {
				at = -1
			}
			log = append(log, int64(at))
		}
	}
	return log
}

// orderMismatch plays data on the laned Engine and on the heap-only
// reference and describes the first entry where their logs differ, or
// returns "" when they agree.
func orderMismatch(data []byte) string {
	want := playOrder(&refSide{}, data)
	got := playOrder(&laneSide{en: NewEngine(1)}, data)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("log entry %d: got %d, want %d\ngot  %v\nwant %v", i, got[i], want[i], got[:i+1], want[:i+1])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d log entries, want %d", len(got), len(want))
	}
	return ""
}

// FuzzEngineOrder holds the laned Engine to the heap-only reference:
// for any sequence of schedules (fixed and variable delays, zero delays,
// same-instant ties), cancels, steps, bounded runs and stops, both fire
// the same events in the same order at the same times, and agree on
// Fired, Scheduled, Cancelled, Pending and every Timer's Pending and At.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 8, 5, 1, 4, 4, 20, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 4, 0, 3, 3, 5, 255})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 2, 3, 2, 0, 5, 255})
	f.Add([]byte{0, 7, 0, 7, 0, 7, 2, 1, 2, 2, 4, 100, 0, 11, 4, 10, 0, 11, 5, 255})
	f.Add([]byte{16, 9, 9, 40, 24, 2, 1, 9, 4, 30, 2, 5, 3, 0, 3, 0, 4, 200, 26, 4, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		if msg := orderMismatch(data); msg != "" {
			t.Fatal(msg)
		}
	})
}

// orderCases is how many generated schedules TestEngineOrderCases
// plays, with seeds 1 to orderCases: about 2 s on a 2-vCPU host.
const orderCases = 20000

// orderCase generates the byte schedule of one seeded case: 1 to 256
// uniform bytes, so each op, delay and reaction is as likely as any
// other.
func orderCase(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+rng.Intn(256))
	rng.Read(data)
	return data
}

// TestEngineOrderCases runs FuzzEngineOrder's check over a fixed count
// of seeded schedules, so every test run tries thousands of generated
// inputs, not only the fuzz target's hand-written seeds. A failure names
// its case seed; orderCase(seed) rebuilds the input, which then belongs
// among FuzzEngineOrder's f.Add seeds.
func TestEngineOrderCases(t *testing.T) {
	for seed := int64(1); seed <= orderCases; seed++ {
		if msg := orderMismatch(orderCase(seed)); msg != "" {
			t.Fatalf("case seed %d: %s", seed, msg)
		}
	}
}
