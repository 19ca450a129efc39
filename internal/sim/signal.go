package sim

// Signal is a broadcast condition variable for processes. Wait parks the
// calling process; Broadcast wakes every waiter at the current instant (in
// wait order). There is no spurious wakeup: a waiter resumes only after a
// Broadcast/Pulse that happened after its Wait began.
type Signal struct {
	e       *Engine
	waiters []waiter
}

// waiter is one parked process plus the deadline timer a WaitUntil armed
// (the zero Timer for plain Waits). Waking a waiter cancels its timer, so
// a timed wait that the signal satisfies leaves nothing in the event
// queue — previously the dead deadline event lingered until its instant,
// retaining the *Proc and inflating Pending.
type waiter struct {
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
	s.waiters = append(s.waiters, waiter{p: p})
	p.park()
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
		s.e.At(s.e.now, ws[i].p.resumeF)
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
	s.waiters = append(s.waiters, waiter{p: p, timer: tm})
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
// whether a waiter was woken.
func (s *Signal) Pulse() bool {
	if len(s.waiters) == 0 {
		return false
	}
	w := s.waiters[0]
	s.waiters[0] = waiter{}
	s.waiters = s.waiters[1:]
	w.timer.Cancel()
	s.e.At(s.e.now, w.p.resumeF)
	return true
}

// Waiting reports the number of parked processes.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Completion is a one-shot event carrying a completion time. Processes can
// wait for it; completing it more than once panics.
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
