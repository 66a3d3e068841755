package sim

import "testing"

// TestPendingCountsLiveEvents pins Pending (the sim.heap_depth gauge) to
// the live events: heap and lane events count, a cancelled lane entry
// still waiting in its ring does not.
func TestPendingCountsLiveEvents(t *testing.T) {
	en := NewEngine(1)
	fn := func() {}
	var lane []Timer
	for i := 0; i < 5; i++ {
		lane = append(lane, en.ScheduleFixed(10*Microsecond, fn))
	}
	heap := en.Schedule(3*Microsecond, fn)
	if got := en.Pending(); got != 6 {
		t.Fatalf("Pending = %d, want 6", got)
	}
	lane[2].Cancel() // mid-lane: stays in the ring until it reaches the front
	lane[3].Cancel()
	if got, n := en.Pending(), en.lanes[0].n; got != 4 || n != 5 {
		t.Fatalf("after two mid-lane cancels: Pending = %d, ring entries = %d; want 4, 5", got, n)
	}
	heap.Cancel()
	lane[0].Cancel() // the front leaves at once
	if got, n := en.Pending(), en.lanes[0].n; got != 2 || n != 4 {
		t.Fatalf("after cancelling the front: Pending = %d, ring entries = %d; want 2, 4", got, n)
	}
	if en.Cancelled() != 4 {
		t.Fatalf("Cancelled = %d, want 4", en.Cancelled())
	}
	en.RunStep() // fires lane[1], then reclaims lane[2] and lane[3]
	if got, n := en.Pending(), en.lanes[0].n; got != 1 || n != 1 {
		t.Fatalf("after one step: Pending = %d, ring entries = %d; want 1, 1", got, n)
	}
	en.Run(Second)
	if got, n := en.Pending(), en.lanes[0].n; got != 0 || n != 0 || en.Fired() != 2 {
		t.Fatalf("drained: Pending = %d, ring entries = %d, Fired = %d; want 0, 0, 2", got, n, en.Fired())
	}
}

// TestLaneAckTimeoutBound drives the ACK-timeout pattern: every period a
// timeout is armed with a fixed delay ten periods long, and the next
// period cancels it, so nearly every lane entry dies in the middle of the
// ring. The ring never holds more than one delay window of entries, and
// once warm the pattern allocates nothing.
func TestLaneAckTimeoutBound(t *testing.T) {
	const period, timeout = 100 * Microsecond, 1000 * Microsecond
	en := NewEngine(1)
	var armed Timer
	n := 0
	var tick func()
	expire := func() {}
	tick = func() {
		n++
		if n%50 != 0 { // one in fifty timeouts is left to expire
			armed.Cancel()
		}
		armed = en.ScheduleFixed(timeout, expire)
		en.ScheduleFunc(period, tick)
	}
	en.ScheduleFunc(0, tick)
	window := int(timeout/period) + 1
	step := func() {
		en.RunStep()
		if got := en.lanes[0].n; got > window {
			t.Fatalf("lane holds %d entries, want at most %d (one delay window)", got, window)
		}
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("steady-state ACK-timeout pattern allocates %.2f per event, want 0", avg)
	}
	if en.Cancelled() < uint64(n)*9/10 {
		t.Fatalf("only %d of %d timeouts cancelled; the pattern is meant to cancel nearly all", en.Cancelled(), n)
	}
}

// TestLaneNeverDrainingDoesNotGrow drives CBR sources that share one gap:
// their lane is never empty, and its ring stays as long as the sources
// need, however long the run.
func TestLaneNeverDrainingDoesNotGrow(t *testing.T) {
	const sources, gap = 3, 4112 * Microsecond
	en := NewEngine(1)
	for i := 0; i < sources; i++ {
		var emit func()
		emit = func() { en.ScheduleFixed(gap, emit) }
		en.ScheduleFunc(Time(i)*Microsecond, emit)
	}
	en.Run(Second)
	ring := len(en.lanes[0].ring)
	en.Run(100 * Second)
	if en.nlanes != 1 || en.lanes[0].n != sources {
		t.Fatalf("lanes %d, entries %d; want 1 lane holding %d", en.nlanes, en.lanes[0].n, sources)
	}
	if got := len(en.lanes[0].ring); got != ring || got > 8 {
		t.Fatalf("ring grew from %d to %d entries over a never-draining run", ring, got)
	}
}

// TestLaneOverflowFallsBackToHeap: a delay that finds every lane keyed to
// another delay and holding events goes on the heap; once a lane drains
// it is re-keyed to the next delay that needs one.
func TestLaneOverflowFallsBackToHeap(t *testing.T) {
	en := NewEngine(1)
	var got []Time
	rec := func() { got = append(got, en.Now()) }
	for d := Time(1); d <= maxLanes+1; d++ {
		en.ScheduleFuncFixed(d*Microsecond, rec)
	}
	if en.nlanes != maxLanes || len(en.queue) != 1 {
		t.Fatalf("lanes %d, heap %d; want %d lanes and the overflow on the heap", en.nlanes, len(en.queue), maxLanes)
	}
	en.RunStep() // drains the 1 µs lane
	en.ScheduleFuncFixed(20*Microsecond, rec)
	if en.lanes[0].delay != 20*Microsecond || len(en.queue) != 1 {
		t.Fatalf("lane 0 keyed to %v, heap %d; want the drained lane re-keyed to 20µs", en.lanes[0].delay, len(en.queue))
	}
	en.Run(Second)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("fired out of order: %v", got)
		}
	}
	if len(got) != maxLanes+2 {
		t.Fatalf("fired %d events, want %d", len(got), maxLanes+2)
	}
}
