package sim

// Signal is a broadcast condition variable. Wait parks the calling
// process and WaitFunc queues a callback; Broadcast wakes every waiter at
// the current instant (in wait order). There is no spurious wakeup: a
// waiter resumes only after a Broadcast/Pulse that happened after its
// Wait began.
type Signal struct {
	e       *Engine
	waiters []waiter
}

// waiter is one wake callback — a parked process's resume, or a
// WaitFunc callback (p nil) — plus the deadline timer a WaitUntil armed
// (the zero Timer otherwise). Waking a waiter cancels its timer, so a
// timed wait that the signal satisfies leaves nothing in the event queue.
type waiter struct {
	wake  func()
	p     *Proc
	timer Timer
}

// NewSignal creates a signal bound to engine e.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Wait parks p until the next Broadcast or a Pulse that selects it. p
// must belong to the same engine as the signal (affinity guard).
//
//putget:hot
func (s *Signal) Wait(p *Proc) {
	s.e.mustOwn(p, "Signal.Wait")
	s.waiters = append(s.waiters, waiter{wake: p.resumeF, p: p})
	p.park()
}

// WaitFunc is the callback form of Wait: fn runs as an event at the
// instant of the next Broadcast, or of a Pulse that selects it. Build fn
// once (a method value kept by its owner) so waiting does not allocate.
//
//putget:hot
func (s *Signal) WaitFunc(fn func()) {
	s.waiters = append(s.waiters, waiter{wake: fn})
}

// Broadcast schedules every current waiter to resume at the present time.
// Waiters added after Broadcast returns are not woken. Safe to call from
// either process or event context. The wait queue keeps its backing
// array, so a signal that is waited on and woken in a loop stops
// allocating after the first round.
//
//putget:hot
func (s *Signal) Broadcast() {
	ws := s.waiters
	for i := range ws {
		ws[i].timer.Cancel()
		s.e.At(s.e.now, ws[i].wake)
	}
	clear(ws)
	s.waiters = ws[:0]
}

// WaitUntil parks p until the next Broadcast/Pulse or until deadline,
// whichever comes first, and reports whether a signal (not the deadline)
// woke the waiter. A deadline at or before the current time returns false
// without parking. When the signal wins, the deadline timer is cancelled
// on the spot; when both land on the same instant, whichever event was
// scheduled first decides (a Broadcast armed before this WaitUntil beats
// the deadline, one armed after loses to it). The deadline callback is
// built once per process (Proc.timeoutF), so a timed wait allocates
// nothing.
//
//putget:hot
func (s *Signal) WaitUntil(p *Proc, deadline Time) bool {
	s.e.mustOwn(p, "Signal.WaitUntil")
	if deadline <= s.e.now {
		return false
	}
	if p.timeoutF == nil {
		p.timeoutF = p.waitTimeout
	}
	p.waitSig, p.timedOut = s, false
	tm := s.e.AtTimer(deadline, p.timeoutF)
	s.waiters = append(s.waiters, waiter{wake: p.resumeF, p: p, timer: tm})
	p.park()
	p.waitSig = nil
	return !p.timedOut
}

// waitTimeout is the deadline event of a WaitUntil on p.waitSig. Any wake
// would have cancelled it, so p is still queued: it leaves the wait queue
// and resumes with the timeout verdict.
//
//putget:hot
func (p *Proc) waitTimeout() {
	s := p.waitSig
	for i := range s.waiters {
		if s.waiters[i].p == p {
			n := copy(s.waiters[i:], s.waiters[i+1:])
			s.waiters[i+n] = waiter{}
			s.waiters = s.waiters[:i+n]
			p.timedOut = true
			p.resume()
			return
		}
	}
}

// Pulse wakes exactly one waiter (FIFO order) if any is parked. It reports
// whether a waiter was woken. The queue shifts down in place, keeping its
// backing array, so a signal pulsed in a loop stops allocating.
//
//putget:hot
func (s *Signal) Pulse() bool {
	ws := s.waiters
	if len(ws) == 0 {
		return false
	}
	w := ws[0]
	n := copy(ws, ws[1:])
	ws[n] = waiter{}
	s.waiters = ws[:n]
	w.timer.Cancel()
	s.e.At(s.e.now, w.wake)
	return true
}

// Waiting reports the number of queued waiters.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Completion is a one-shot event carrying a completion time. Processes
// and callbacks can wait for it; completing it more than once panics.
type Completion struct {
	e      *Engine
	done   bool
	at     Time
	signal *Signal
}

// NewCompletion creates an unresolved completion.
func NewCompletion(e *Engine) *Completion {
	return &Completion{e: e, signal: NewSignal(e)}
}

// Complete resolves the completion at the current time and wakes waiters.
func (c *Completion) Complete() {
	if c.done {
		panic("sim: Completion completed twice")
	}
	c.done = true
	c.at = c.e.now
	c.signal.Broadcast()
}

// Done reports whether the completion has resolved.
func (c *Completion) Done() bool { return c.done }

// At returns the resolution time; valid only when Done.
func (c *Completion) At() Time { return c.at }

// Wait parks p until the completion resolves. Returns immediately if it
// already has.
func (c *Completion) Wait(p *Proc) {
	c.e.mustOwn(p, "Completion.Wait")
	if c.done {
		return
	}
	c.signal.Wait(p)
}

// WaitFunc is the callback form of Wait: fn runs at once if the
// completion has resolved, else as an event at the instant it resolves.
func (c *Completion) WaitFunc(fn func()) {
	if c.done {
		fn()
		return
	}
	c.signal.WaitFunc(fn)
}

// Reset returns a resolved completion to unresolved, so an owner that
// pools it can reuse it for its next operation.
func (c *Completion) Reset() {
	if c.signal.Waiting() > 0 {
		panic("sim: Reset of a Completion with waiters")
	}
	c.done = false
}
