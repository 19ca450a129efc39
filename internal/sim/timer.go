package sim

// Timer is a handle to a cancellable scheduled event, returned by
// AtTimer/AfterTimer. The zero Timer is valid and inert: Cancel and
// Active on it return false, so callers can hold one unconditionally and
// cancel without a nil guard. A Timer is engine state — use it only under
// the engine's handoff discipline, like every other scheduling call.
//
// Timers exist because fire-and-forget deadlines leak: an event armed
// "just in case" (a wait deadline, a retry watchdog) whose condition
// resolves early would otherwise sit in the queue until its instant
// passes, retaining its closure (and anything it captures, typically a
// *Proc or a request record) and inflating Pending and the queue. Cancel
// unlinks the event from the middle of the queue in O(1); a cancelled
// event is never executed and never counts toward Executed.
//
// The handle names the event's queue node; the node's generation, bumped
// each time the node is released, makes a handle to a recycled node
// inert instead of cancelling someone else's event.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// AtTimer schedules fn at absolute time t like At and returns a handle
// that can cancel it. Scheduling in the past panics, as with At.
//
//putget:hot
func (e *Engine) AtTimer(t Time, fn func()) Timer {
	idx := e.schedule(t, fn)
	return Timer{e: e, idx: idx, gen: e.q.nodes[idx].gen}
}

// AfterTimer schedules fn d after the current time and returns a
// cancellation handle.
//
//putget:hot
func (e *Engine) AfterTimer(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtTimer(e.now.Add(d), fn)
}

// Cancel removes the timer's event from the queue. It reports whether it
// cancelled anything: false when the timer already fired, was already
// cancelled, is the zero Timer, or its engine was shut down. Cancelling
// releases the event's closure immediately.
//
//putget:hot
func (t Timer) Cancel() bool {
	if !t.Active() {
		return false
	}
	e := t.e
	e.touch("Timer.Cancel")
	e.q.remove(t.idx, e.now)
	e.untouch()
	return true
}

// Active reports whether the timer's event is still queued.
func (t Timer) Active() bool {
	return t.e != nil && !t.e.dead && t.e.q.nodes[t.idx].gen == t.gen
}
