// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as int64 nanoseconds, fires callbacks in
// (time, sequence) order, and exposes a seeded random number generator so
// that every run is a pure function of its inputs. All higher layers of
// the repository (PHY, MAC, traffic sources, EZ-Flow controllers) are
// driven exclusively by this engine: nothing in the simulator reads the
// wall clock.
//
// The engine is built for the hot path. Fired and cancelled events are
// recycled through a free list, so steady-state scheduling does not
// allocate; Timer handles carry a generation counter, so a handle kept
// past its event's lifetime can never cancel the event's next occupant.
// Callers that never cancel should prefer the ScheduleFunc, ScheduleFuncAt
// and ScheduleFuncFixed fast paths, which skip handle construction.
//
// Pending events wait in two kinds of queue. Schedule, ScheduleAt and
// their Func forms put them on an inlined 4-ary heap. ScheduleFixed and
// ScheduleFuncFixed, meant for delays that are constant over a run, put
// them in a lane: a FIFO of the events scheduled with one delay (at most
// eight lanes; when none is free for a delay, the heap takes the event). The clock never runs
// backwards and every schedule takes the next sequence number, so events
// scheduled with one delay join their lane already in (time, sequence)
// order, and the lane keeps them sorted with no heap operation. Each step
// fires the least of the heap top and the lane fronts under the same
// (time, sequence) rule, so a run fires exactly the events, in exactly
// the order, that an engine with the heap alone would. The MAC and PHY
// schedule most of their events with a handful of such delays (air
// times, SIFS, the ACK timeout, a CBR gap).
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Time is a point in virtual time, counted in nanoseconds from the start of
// the run. It intentionally mirrors time.Duration arithmetic: Time(x) + Time
// durations compose with ordinary integer addition.
type Time int64

// Common durations, re-exported so call sites do not need to convert between
// time.Duration and Time by hand.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts a float64 number of seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is the pooled state of one scheduled callback. Events are owned by
// the engine: they move between the queues and the free list and are never
// exposed to callers directly (Timer is the handle). gen distinguishes the
// lifetimes of successive occupants of the same allocation.
type event struct {
	at  Time
	seq uint64
	fn  func() // nil once a lane entry is cancelled
	// index is the heap position (>= 0), notQueued, or laneIndex(l) for
	// an event queued in lane l.
	index  int32
	gen    uint64
	engine *Engine
}

// notQueued marks an event that is on the free list or firing.
const notQueued = -1

// laneIndex encodes lane l in an event's index field, below notQueued.
func laneIndex(l int) int32 { return notQueued - 1 - int32(l) }

// Timer is a cancellable handle to a scheduled callback. The zero value is
// inert: Cancel is a no-op and Pending reports false. A Timer remains valid
// forever — once its event has fired or been cancelled, the engine may
// recycle the underlying storage for a new event, and the handle's
// generation check guarantees the stale Timer cannot touch the newcomer.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the timer's event is still queued to fire.
func (t Timer) Pending() bool {
	e := t.ev
	return e != nil && e.gen == t.gen && e.index != notQueued
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled — or a zero Timer — is a no-op, even if
// the engine has recycled the event's storage for a newer schedule.
func (t Timer) Cancel() {
	e := t.ev
	if e == nil || e.gen != t.gen || e.index == notQueued {
		return
	}
	en := e.engine
	en.cancelled++
	if e.index >= 0 {
		en.queue.remove(int(e.index))
		en.release(e)
		return
	}
	en.cancelLane(e)
}

// eventHeap is an index-tracked 4-ary min-heap of events ordered by
// (at, seq). The seq tie-break guarantees FIFO ordering among events
// scheduled for the same instant, which keeps runs deterministic. A 4-ary
// layout halves the tree depth of a binary heap and keeps siblings on one
// cache line, and the inlined sift loops avoid the interface dispatch of
// container/heap.
type eventHeap []*event

func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *event) {
	e.index = int32(len(*h))
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *event {
	q := *h
	e := q[0]
	n := len(q) - 1
	if n > 0 {
		q[0] = q[n]
		q[0].index = 0
	}
	q[n] = nil
	*h = q[:n]
	if n > 1 {
		h.siftDown(0)
	}
	e.index = notQueued
	return e
}

// remove deletes the event at heap position i.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	e := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = int32(i)
	}
	q[n] = nil
	*h = q[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	e.index = notQueued
}

func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = e
	e.index = int32(i)
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: the simulated world is single-threaded by design, which is
// what makes runs reproducible. (Independent engines may run concurrently;
// the campaign layer relies on that. The one cross-goroutine input is the
// StopOn flag.)
type Engine struct {
	now    Time
	queue  eventHeap
	seq    uint64
	nlanes int               // lanes keyed so far: a prefix of fronts and lanes
	fronts [maxLanes]laneKey // each lane's front key, emptyKey when it is empty
	rng    *rand.Rand
	halted bool
	fired  uint64
	print  uint64   // the event-order fingerprint; see Fingerprint
	free   []*event // recycled events; Schedule pops here before allocating
	lanes  [maxLanes]lane
	live   int // events queued in lanes and not cancelled
	// cancelled and stop sit after the hot fields: only Timer.Cancel, the
	// observability gauges and Run's stop poll touch them.
	cancelled uint64
	stop      *atomic.Bool
}

// stopPollMask sets how often Run reads its StopOn flag: once every
// stopPollMask+1 = 4096 fired events. Masking the fired count with a
// power of two minus one keeps the poll to one AND and a rarely taken
// branch per event.
const stopPollMask = 4095

// NewEngine returns an engine whose random generator is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (en *Engine) Now() Time { return en.now }

// Rand exposes the engine's deterministic random source.
func (en *Engine) Rand() *rand.Rand { return en.rng }

// Fired reports how many events have executed so far.
func (en *Engine) Fired() uint64 { return en.fired }

// Fingerprint reports a hash of the (time, sequence) key of every event
// fired so far, in firing order. The sequence number records the order
// events were scheduled in, so two runs with equal fingerprints fired
// the same events in the same order, up to hash collisions: a check that
// a change to the simulator reorders nothing, where equal outputs would
// miss two same-instant events that swapped.
func (en *Engine) Fingerprint() uint64 { return en.print }

// fingerprintMul is the odd multiplier of the fingerprint's fold (the
// 64-bit FNV prime): Run and RunStep fold each fired event's key with
// one xor-multiply-xor.
const fingerprintMul = 0x100000001b3

// Scheduled reports how many events have ever been scheduled (the
// engine's monotone sequence counter).
func (en *Engine) Scheduled() uint64 { return en.seq }

// Cancelled reports how many scheduled events were cancelled before
// firing.
func (en *Engine) Cancelled() uint64 { return en.cancelled }

// Pending reports how many events are queued to fire: those on the heap
// and those in lanes, but not the cancelled lane entries that wait to be
// reclaimed.
func (en *Engine) Pending() int { return len(en.queue) + en.live }

// get recycles an event from the free list, or allocates one.
func (en *Engine) get() *event {
	if n := len(en.free); n > 0 {
		e := en.free[n-1]
		en.free[n-1] = nil
		en.free = en.free[:n-1]
		return e
	}
	return &event{engine: en, index: notQueued}
}

// release returns a fired or cancelled event to the free list. Bumping gen
// invalidates every outstanding Timer handle to this occupancy.
func (en *Engine) release(e *event) {
	e.fn = nil
	e.index = notQueued
	e.gen++
	en.free = append(en.free, e)
}

// schedule queues fn at absolute time at (clamped to the present) and
// returns the backing event.
func (en *Engine) schedule(at Time, fn func()) *event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if at < en.now {
		at = en.now
	}
	en.seq++
	e := en.get()
	e.at, e.seq, e.fn = at, en.seq, fn
	en.queue.push(e)
	return e
}

// Schedule queues fn to run after delay and returns a cancellable handle.
// A negative delay fires "now" (but still strictly after the currently
// executing event returns).
func (en *Engine) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return en.ScheduleAt(en.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute time at and returns a cancellable
// handle. Times in the past are clamped to the present.
func (en *Engine) ScheduleAt(at Time, fn func()) Timer {
	e := en.schedule(at, fn)
	return Timer{ev: e, gen: e.gen}
}

// ScheduleFunc queues fn to run after delay without returning a handle —
// the fast path for fire-and-forget callbacks that are never cancelled
// (PHY completions, periodic samplers, source start/stop).
func (en *Engine) ScheduleFunc(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	en.schedule(en.now+delay, fn)
}

// ScheduleFuncAt queues fn to run at absolute time at without returning a
// handle; see ScheduleFunc.
func (en *Engine) ScheduleFuncAt(at Time, fn func()) {
	en.schedule(at, fn)
}

// ScheduleFixed is Schedule for a caller whose delay is a per-run
// constant, such as a frame's air time or a protocol timeout. The event
// fires exactly when and in the order Schedule's would; it is queued in
// the delay's lane, which costs no heap operation, whenever a lane is
// free for that delay.
func (en *Engine) ScheduleFixed(delay Time, fn func()) Timer {
	e := en.scheduleFixed(delay, fn)
	return Timer{ev: e, gen: e.gen}
}

// ScheduleFuncFixed is ScheduleFunc for a per-run constant delay; see
// ScheduleFixed.
func (en *Engine) ScheduleFuncFixed(delay Time, fn func()) {
	en.scheduleFixed(delay, fn)
}

// StopOn attaches flag as a stop request that any goroutine may raise
// with flag.Store(true). Run reads it on entry, so a request raised
// before Run starts is honoured, and then once every 4096 fired events,
// so a running loop ends within a few thousand events of the request.
// Either way the run halts after the event in progress: the clock stays
// where the loop stopped. The poll schedules no event, draws no random value
// and allocates nothing, so a run whose flag is never raised fires
// exactly the events it would without one. A nil flag detaches it.
func (en *Engine) StopOn(flag *atomic.Bool) { en.stop = flag }

// stopRequested reports whether the StopOn flag is raised.
func (en *Engine) stopRequested() bool { return en.stop != nil && en.stop.Load() }

// Run executes events until the queue is empty, until is reached, or the
// StopOn flag is raised. It returns the virtual time at which
// the loop stopped.
func (en *Engine) Run(until Time) Time {
	en.halted = en.stopRequested()
	for !en.halted {
		e, l := en.next()
		if e == nil || e.at > until {
			break
		}
		en.take(l)
		en.now = e.at
		en.fired++
		en.print = (en.print^uint64(e.at))*fingerprintMul ^ e.seq
		if en.fired&stopPollMask == 0 && en.stopRequested() {
			en.halted = true // this event still fires; the loop ends after it
		}
		fn := e.fn
		en.release(e)
		fn()
	}
	if en.now < until && !en.halted {
		// Advance the clock to the horizon even if the world went idle.
		en.now = until
	}
	return en.now
}

// RunStep executes exactly one event, if any remain, and reports whether an
// event fired. Used by tests that want to single-step the world.
func (en *Engine) RunStep() bool {
	e, l := en.next()
	if e == nil {
		return false
	}
	en.take(l)
	en.now = e.at
	en.fired++
	en.print = (en.print^uint64(e.at))*fingerprintMul ^ e.seq
	fn := e.fn
	en.release(e)
	fn()
	return true
}

// Uniform returns an integer uniform on [0, n). It panics if n <= 0.
func (en *Engine) Uniform(n int) int {
	if n <= 0 {
		panic("sim: Uniform with non-positive bound")
	}
	return en.rng.Intn(n)
}

// Chance returns true with probability p (clamped to [0,1]).
func (en *Engine) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return en.rng.Float64() < p
}
