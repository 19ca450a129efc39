package sim

import "fmt"

// Wake tokens travel the per-goroutine handoff channels.
const (
	wakeResume   = iota // you own the simulation: start, or return from park
	wakeKill            // unwind via the kill sentinel (Shutdown)
	wakeLoopDone        // (mainWake) the event loop finished; Run returns
	wakeContinue        // (mainWake) a process died; Run's goroutine resumes the loop
	wakePanic           // (mainWake) an event panicked; Run's goroutine re-panics
)

// Unwind codes communicate, through Engine.unwind, why the innermost loop
// frame must return. They are set inside a dispatched event and checked by
// the loop after each dispatch.
const (
	unwindNone    = iota
	unwindResumed // the carrier process was woken: return from park
	unwindDone    // a process finished the loop; the Run caller returns
)

// Proc is a simulation process: a goroutine that runs model code and blocks
// on virtual time. A Proc may only execute while the engine has handed
// control to it; it returns control by sleeping, waiting, or finishing.
//
// Control transfer follows the carrier discipline (see Engine.loop): a
// parked process's own goroutine keeps running the event loop, so waking
// the process whose wakeup is the next event — the overwhelmingly common
// case in polling-heavy models — is a flag store, not a goroutine switch.
type Proc struct {
	e    *Engine
	name string
	wake chan uint8
	done bool
	kill bool
	// timedOut is the verdict of the pending Signal.WaitUntil on waitSig.
	timedOut bool

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

// procKilled is the sentinel panic value Shutdown injects into parked
// processes; the spawn wrapper recovers it and exits cleanly.
var procKilled = new(int)

// Spawn starts fn as a new process at the current virtual time. fn begins
// executing when the engine reaches the start event, in scheduling order
// relative to other events at the same instant.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute virtual time t.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	e.mustAlive("Spawn")
	p := &Proc{e: e, name: name, wake: make(chan uint8)}
	p.resumeF = p.resume
	e.procs++
	e.spawned++
	e.live[p] = struct{}{}
	e.exited.Add(1)
	//putget:allow engineaffinity -- this IS sim.Proc: the one goroutine birth in the sim domain; the engine serializes it via the carrier handoff
	go func() {
		defer e.exited.Done() // runs last, after any handshake send
		defer func() {
			if r := recover(); r != nil && r != procKilled {
				panic(r)
			}
			p.done = true
			e.procs--
			delete(e.live, p)
			if p.kill {
				e.mainWake <- wakeLoopDone // Shutdown's per-kill handshake
				return
			}
			// Natural exit while carrying the loop: hand it back to the
			// Run caller's goroutine, which resumes dispatching.
			e.carrier = nil
			e.mainWake <- wakeContinue
		}()
		if <-p.wake == wakeKill {
			panic(procKilled)
		}
		fn(p)
	}()
	e.At(t, p.resumeF)
	return p
}

// Name returns the process name (used in traces and panics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// resume transfers the simulation to p. It runs in dispatch context, on
// whichever goroutine currently carries the event loop. Fast path: when p
// itself is the carrier (it parked and its own wakeup is the event being
// dispatched), resumption is a flag store — no goroutine switch at all.
// Otherwise the carrier wakes p's goroutine and blocks until the
// simulation is handed back to it.
//
//putget:hot
func (p *Proc) resume() {
	e := p.e
	c := e.carrier
	if c == p {
		e.unwind = unwindResumed
		return
	}
	e.carrier = p
	e.handoffs++
	p.wake <- wakeResume
	if c == nil {
		// We are the Run caller: blocked until the loop finishes (a
		// carrier drained it — Run returns), a process dies carrying it
		// (we take the loop back over), or an event panics on a carrier
		// (we re-raise it so Run's caller sees the panic, exactly as when
		// the event runs on this goroutine directly).
		switch <-e.mainWake {
		case wakeLoopDone:
			e.unwind = unwindDone
		case wakePanic:
			v := e.panicVal
			e.panicVal = nil
			panic(v)
		}
		return
	}
	// We are a parked process: blocked until our own wakeup dispatches,
	// or Shutdown kills us.
	if <-c.wake == wakeKill {
		panic(procKilled)
	}
	e.unwind = unwindResumed
}

// park returns control to the engine by running the event loop on this
// goroutine until something resumes the process. If the loop finishes
// first, completion is handed to the Run caller and the process stays
// parked (a later Run may still wake it; Shutdown kills it). If a
// dispatched event panics, the value is forwarded to the Run caller —
// an event's panic must surface out of Run/RunUntil no matter whose
// goroutine dispatched it — and the process likewise stays parked.
//
//putget:hot
func (p *Proc) park() {
	e := p.e
	if p.carryLoop() == unwindNone {
		e.carrier = nil
		e.mainWake <- wakeLoopDone
		if <-p.wake == wakeKill {
			panic(procKilled)
		}
	}
}

// carryLoop runs the event loop for park, converting a panic raised by a
// dispatched event into a wakePanic handoff to the Run caller. The kill
// sentinel is re-raised untouched: it means this process was terminated
// while blocked inside a nested handoff, and must keep unwinding.
func (p *Proc) carryLoop() (u int) {
	e := p.e
	defer func() {
		if r := recover(); r != nil {
			if r == procKilled {
				panic(procKilled)
			}
			e.panicVal = r
			e.carrier = nil
			e.mainWake <- wakePanic
			if <-p.wake == wakeKill {
				panic(procKilled)
			}
			u = unwindResumed
		}
	}()
	return e.loop()
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time but still yield, letting simultaneous events run.
//
//putget:hot
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.After(d, p.resumeF)
	p.park()
}

// SleepUntil suspends the process until absolute time t. If t is in the
// past it panics (causality violation).
//
//putget:hot
func (p *Proc) SleepUntil(t Time) {
	if t < p.e.now {
		panic(fmt.Sprintf("sim: %s sleeping until %v which is before now %v", p.name, t, p.e.now))
	}
	p.e.At(t, p.resumeF)
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
