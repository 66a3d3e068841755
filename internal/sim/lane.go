package sim

import "math"

// maxLanes bounds the lanes an engine keeps. A run's MAC and PHY use a
// handful of fixed delays; a schedule that finds every lane keyed to
// another delay and holding events goes on the heap instead.
const maxLanes = 8

// laneKey is a lane front's (at, seq) firing key, kept inline in
// Engine.fronts so that picking the next event reads no lane storage.
type laneKey struct {
	at  Time
	seq uint64
}

// emptyKey is the front key of an empty lane: it sorts after every
// event, since no event is ever given the last seq.
var emptyKey = laneKey{at: math.MaxInt64, seq: math.MaxUint64}

// lane is a FIFO of the events scheduled with one fixed delay. Their
// (at, seq) keys ascend in push order, because the clock never runs
// backwards and every schedule takes a larger seq, so the front is the
// lane's earliest event. A cancelled event stays in the ring, its fn
// cleared, until it reaches the front; the front itself is always live,
// so a lane with entries holds at least one live event, and every entry
// lies within one delay of the clock.
type lane struct {
	delay Time
	ring  []*event // power-of-two length; entries head .. head+n-1
	head  int
	n     int // entries in the ring, cancelled ones included
}

// laneFor returns the lane that takes events scheduled with delay d: the
// lane already keyed to d, else an empty lane re-keyed to d, else a new
// lane; -1 when every lane holds events of another delay.
func (en *Engine) laneFor(d Time) int {
	free := -1
	for l := range en.lanes[:en.nlanes] {
		ln := &en.lanes[l]
		if ln.delay == d {
			return l
		}
		if free < 0 && ln.n == 0 {
			free = l
		}
	}
	if free < 0 {
		if en.nlanes == maxLanes {
			return -1
		}
		free = en.nlanes
		en.nlanes++
		en.fronts[free] = emptyKey
	}
	en.lanes[free].delay = d
	return free
}

// ScheduleFixed is Schedule for a caller whose delay is a per-run
// constant, such as a frame's air time or a protocol timeout. The event
// fires exactly when and in the order Schedule's would; it is queued in
// the delay's lane, which costs no heap operation, whenever a lane is
// free for that delay, and on the heap otherwise.
func (en *Engine) ScheduleFixed(delay Time, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	at := en.now + delay
	l := -1
	if at >= en.now { // an overflowed time goes to the heap, which clamps it
		l = en.laneFor(delay)
	}
	if l < 0 {
		return en.ScheduleAt(at, fn)
	}
	en.seq++
	e := en.get()
	e.at, e.seq, e.fn = at, en.seq, fn
	e.index = laneIndex(l)
	ln := &en.lanes[l]
	if ln.n == len(ln.ring) {
		ln.grow()
	}
	ln.ring[(ln.head+ln.n)&(len(ln.ring)-1)] = e
	ln.n++
	en.live++
	if ln.n == 1 {
		en.fronts[l] = laneKey{at, e.seq}
	}
	return Timer{ev: e, gen: e.gen}
}

// grow doubles the ring, keeping the entries in order.
func (ln *lane) grow() {
	ring := make([]*event, max(8, 2*len(ln.ring)))
	for i := 0; i < ln.n; i++ {
		ring[i] = ln.ring[(ln.head+i)&(len(ln.ring)-1)]
	}
	ln.ring, ln.head = ring, 0
}

// next returns the event due first, under the (at, seq) rule, and where
// it is queued: lane l, or -1 for the heap top. The event is nil when
// nothing is queued.
func (en *Engine) next() (*event, int) {
	k := emptyKey
	var e *event
	if len(en.queue) > 0 {
		e = en.queue[0]
		k = laneKey{e.at, e.seq}
	}
	best := -1
	for l := range en.fronts[:en.nlanes] {
		f := &en.fronts[l]
		if f.at < k.at || f.at == k.at && f.seq < k.seq {
			best, k = l, *f
		}
	}
	if best >= 0 {
		ln := &en.lanes[best]
		e = ln.ring[ln.head]
	}
	return e, best
}

// take removes the event next returned for l.
func (en *Engine) take(l int) {
	if l < 0 {
		en.queue.popMin()
		return
	}
	en.live--
	en.lanes[l].pop()
	en.advance(l)
}

// pop drops the front entry.
func (ln *lane) pop() {
	ln.ring[ln.head] = nil
	ln.head = (ln.head + 1) & (len(ln.ring) - 1)
	ln.n--
}

// advance reclaims the cancelled entries at the front of lane l and
// records the new front's key.
func (en *Engine) advance(l int) {
	ln := &en.lanes[l]
	for ln.n > 0 {
		e := ln.ring[ln.head]
		if e.fn != nil {
			en.fronts[l] = laneKey{e.at, e.seq}
			return
		}
		ln.pop()
		en.release(e)
	}
	en.fronts[l] = emptyKey
}

// cancelLane cancels e, which is queued in a lane. The front leaves its
// lane at once; any other entry is marked dead (its fn cleared) and its
// generation bumped, so its Timer stops reporting it pending, and it is
// reclaimed when it reaches the front.
func (en *Engine) cancelLane(e *event) {
	l := int(notQueued - 1 - e.index)
	ln := &en.lanes[l]
	en.live--
	if ln.ring[ln.head] == e {
		ln.pop()
		en.release(e)
		en.advance(l)
		return
	}
	e.fn = nil
	e.gen++
}
