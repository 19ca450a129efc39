// iter needs Go 1.23; the tag lifts this file alone, go.mod stays at 1.22.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine that runs model code and
// blocks on virtual time. A Proc may only execute while the engine has
// switched into it; it returns control by sleeping, waiting, or
// finishing.
//
// Each process is an iter.Pull coroutine and the event loop runs only on
// the Run caller's goroutine: resume switches into the process (next),
// and park switches back to the loop (yield). A sleep whose wakeup would
// be the loop's very next event does not switch at all (see SleepUntil).
type Proc struct {
	e    *Engine
	name string
	done bool
	// timedOut is the verdict of the pending Signal.WaitUntil on waitSig.
	timedOut bool

	// next switches into the coroutine, stop unwinds it (Shutdown), and
	// yield, captured when the coroutine starts, switches back out.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// resumeF is the resume method value, built once at spawn so the hot
	// wake paths (Sleep, Signal.Broadcast, Resource.Release, ...) schedule
	// it without allocating a fresh closure per wakeup.
	resumeF func()

	// waitSig is the signal of a pending Signal.WaitUntil and timeoutF
	// its deadline callback (the waitTimeout method value), built on the
	// first timed wait and reused by every later one.
	waitSig  *Signal
	timeoutF func()
}

// procKilled is the sentinel panic value a parked process raises when
// Shutdown stops its coroutine; the spawn wrapper recovers it and exits
// cleanly.
var procKilled = new(int)

// Spawn starts fn as a new process at the current virtual time. fn begins
// executing when the engine reaches the start event, in scheduling order
// relative to other events at the same instant.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute virtual time t. A panic
// in fn ends the process and is re-raised out of Run/RunUntil.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	e.mustAlive("Spawn")
	p := &Proc{e: e, name: name}
	p.resumeF = p.resume
	e.procs++
	e.spawned++
	e.live[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.exit()
			if r := recover(); r != nil && r != procKilled {
				panic(r)
			}
		}()
		fn(p)
	})
	e.At(t, p.resumeF)
	return p
}

// exit marks p finished. Shutdown calls it too, for a process whose
// coroutine it stopped before the start event ran.
func (p *Proc) exit() {
	if !p.done {
		p.done = true
		p.e.procs--
		delete(p.e.live, p)
	}
}

// Name returns the process name (used in traces and panics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// resume switches into p's coroutine. It runs in dispatch context on the
// Run caller's goroutine and returns once p parks or finishes; a panic
// in p comes out of it.
//
//putget:hot
func (p *Proc) resume() {
	p.e.handoffs++
	p.next()
}

// park switches back to the event loop until something resumes p. A
// false from yield means Shutdown stopped the coroutine: p unwinds.
//
//putget:hot
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled)
	}
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time but still yield, letting simultaneous events run.
//
//putget:hot
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.e.now.Add(d))
}

// SleepUntil suspends the process until absolute time t. If t is in the
// past it panics (causality violation).
//
// When the wakeup would be the loop's next event — t is within the
// run's bound, no Stop is pending, and nothing is queued at or before t
// — it runs in place: the clock, the sequence number and the executed
// count advance exactly as if the loop had popped it, and p keeps
// running without a switch. Every event keeps its (at, seq).
//
//putget:hot
func (p *Proc) SleepUntil(t Time) {
	e := p.e
	if t < e.now {
		panic(fmt.Sprintf("sim: %s sleeping until %v which is before now %v", p.name, t, e.now))
	}
	if e.WakeInPlace(t) {
		return
	}
	e.At(t, p.resumeF)
	p.park()
}

// WakeFunc returns p's wake callback, for handing p's continuation to a
// callback-form operation that Await then waits for. The operation must
// call it exactly once, from an event it scheduled — never before it
// returns to p — so a blocking API and its callback form share one
// implementation, event for event.
func (p *Proc) WakeFunc() func() { return p.resumeF }

// Await parks p until its WakeFunc runs.
//
//putget:hot
func (p *Proc) Await() { p.park() }
