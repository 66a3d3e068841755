package sim

import "testing"

// TestPoolNoResurrect is the safety property of the event free list: a
// Timer held past its event's death must not be able to cancel (or see as
// pending) the recycled event's next occupant.
func TestPoolNoResurrect(t *testing.T) {
	en := NewEngine(1)
	fired := 0

	// Cancel path: a's storage is recycled into b.
	a := en.Schedule(10*Microsecond, func() { fired |= 1 })
	a.Cancel()
	b := en.Schedule(20*Microsecond, func() { fired |= 2 })
	if b.ev != a.ev {
		t.Fatalf("free list did not recycle the cancelled event")
	}
	a.Cancel() // stale handle: must not touch b's schedule
	if a.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !b.Pending() {
		t.Fatal("stale Cancel resurrected onto the new occupant")
	}
	en.Run(Second)
	if fired != 2 {
		t.Fatalf("fired = %b, want only the second callback", fired)
	}

	// Fire path: c fires, its storage is recycled into d.
	fired = 0
	c := en.Schedule(10*Microsecond, func() { fired |= 1 })
	en.Run(en.Now() + Millisecond)
	d := en.Schedule(10*Microsecond, func() { fired |= 2 })
	if d.ev != c.ev {
		t.Fatalf("free list did not recycle the fired event")
	}
	if c.Pending() {
		t.Fatal("handle to a fired event reports pending")
	}
	c.Cancel()
	if !d.Pending() {
		t.Fatal("stale Cancel after fire killed the new occupant")
	}
	en.Run(en.Now() + Millisecond)
	if fired != 3 {
		t.Fatalf("fired = %b, want both callbacks", fired)
	}
}

// TestZeroTimerInert: the zero Timer must be safe to query and cancel.
func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer pending")
	}
	if _, ok := tm.At(); ok {
		t.Fatal("zero Timer has a fire time")
	}
	tm.Cancel() // must not panic
}

// TestCancelInsideOwnCallback: cancelling the currently executing event's
// own handle from inside its callback is a no-op (the event already left
// the queue) and must not corrupt the pool.
func TestCancelInsideOwnCallback(t *testing.T) {
	en := NewEngine(1)
	var self Timer
	ran := false
	self = en.Schedule(Microsecond, func() {
		ran = true
		self.Cancel()
	})
	en.Schedule(2*Microsecond, func() {})
	en.Run(Second)
	if !ran {
		t.Fatal("callback did not run")
	}
	if en.Fired() != 2 {
		t.Fatalf("fired = %d, want 2", en.Fired())
	}
}

// TestTimerAt reports the scheduled fire time while pending.
func TestTimerAt(t *testing.T) {
	en := NewEngine(1)
	tm := en.Schedule(30*Microsecond, func() {})
	at, ok := tm.At()
	if !ok || at != 30*Microsecond {
		t.Fatalf("At() = %v, %v; want 30us, true", at, ok)
	}
	en.Run(Second)
	if _, ok := tm.At(); ok {
		t.Fatal("At() still ok after fire")
	}
}

// TestScheduleSteadyStateAllocs asserts the tentpole property: once the
// event pool is warm, schedule→fire churn performs zero allocations.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	en := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		en.Schedule(Time(i)*Microsecond, fn)
	}
	en.Run(Second)
	if avg := testing.AllocsPerRun(200, func() {
		en.Schedule(Microsecond, fn)
		en.RunStep()
	}); avg != 0 {
		t.Fatalf("steady-state Schedule/fire allocates %.1f objects per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		tm := en.Schedule(Microsecond, fn)
		tm.Cancel()
	}); avg != 0 {
		t.Fatalf("steady-state Schedule/Cancel allocates %.1f objects per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		en.ScheduleAt(en.Now()+Microsecond, fn)
		en.RunStep()
	}); avg != 0 {
		t.Fatalf("steady-state ScheduleAt/fire allocates %.1f objects per op, want 0", avg)
	}
}
