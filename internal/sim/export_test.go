package sim

// At reports when the event fires; the second result is false if the event
// already fired or was cancelled.
func (t Timer) At() (Time, bool) {
	if !t.Pending() {
		return 0, false
	}
	return t.ev.at, true
}

// Stop halts the run loop after the currently executing event completes.
// It must be called from the simulation goroutine (an event callback).
func (en *Engine) Stop() { en.halted = true }
