package sim

import (
	"fmt"
	"sync/atomic"
)

// Engine owns the virtual clock and the pending-event queue.
//
// All simulation code — event callbacks and process bodies — runs one
// piece at a time: the event loop runs on the Run caller's goroutine and
// switches into one process coroutine at a time, so engine state never
// needs locking. Calling engine methods from goroutines outside the
// simulation is not supported.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	spawned  uint64 // processes ever spawned
	handoffs uint64 // switches into a process coroutine

	// q holds the pending events (see queue.go).
	q calendar

	// bound is the time limit of the current Run/RunUntil; a process
	// sleep wakes in place only within it (see Proc.SleepUntil).
	bound Time

	procs   int // live (not yet finished) processes
	live    map[*Proc]struct{}
	stopped bool

	payloads payloadPool // free DMA payload buffers (see Payload)

	// id names the engine in affinity diagnostics; dead marks an engine
	// whose simulation was torn down by Shutdown. busy detects concurrent
	// scheduling from two goroutines (see touch).
	id   uint64
	dead bool
	busy atomic.Int32

	// TraceEv, when non-nil, receives a line per traced event, with the
	// emitting component and the event kind beside the text. Models call
	// Tracev to emit them.
	TraceEv func(t Time, comp, kind, msg string)

	// obs receives span open/close and metric samples; nil disables the
	// structured observability layer entirely (the common case — every
	// instrumentation site guards on Observing, so a run without an
	// observer allocates and formats nothing).
	obs     Observer
	spanSeq uint64
}

// Attr is one key=value attribute on a span.
type Attr struct {
	Key string
	Val int64
}

// SpanID identifies one span within its engine. The zero SpanID is the
// "observability disabled" sentinel: SpanOpen returns it when no observer
// is installed, and SpanClose ignores it, so instrumentation sites need no
// guard around the close path.
type SpanID uint64

// Observer receives the structured observability stream: typed spans
// bracketing pipeline stages and virtual-clock metric samples. All calls
// happen under the engine's single-threaded handoff discipline, in a
// deterministic order for a given simulation.
type Observer interface {
	// SpanOpen announces a span. at may lie in the future when the stage's
	// schedule is known at open time (cut-through wire occupancy).
	SpanOpen(id SpanID, at Time, comp, kind string, attrs []Attr)
	// SpanClose ends a span. at may lie in the future (see SpanCloseAt).
	SpanClose(id SpanID, at Time)
	// MetricSample records one point of a virtual-time series.
	MetricSample(at Time, comp, name string, value float64)
	// Shutdown is called by Engine.Shutdown so observers can force-close
	// spans still open when a simulation is torn down.
	Shutdown(at Time)
}

// teeObserver fans the stream out to two observers, letting a second
// Attach coexist with an earlier one.
type teeObserver struct{ a, b Observer }

func (t teeObserver) SpanOpen(id SpanID, at Time, comp, kind string, attrs []Attr) {
	t.a.SpanOpen(id, at, comp, kind, attrs)
	t.b.SpanOpen(id, at, comp, kind, attrs)
}
func (t teeObserver) SpanClose(id SpanID, at Time) { t.a.SpanClose(id, at); t.b.SpanClose(id, at) }
func (t teeObserver) MetricSample(at Time, comp, name string, v float64) {
	t.a.MetricSample(at, comp, name, v)
	t.b.MetricSample(at, comp, name, v)
}
func (t teeObserver) Shutdown(at Time) { t.a.Shutdown(at); t.b.Shutdown(at) }

// engineSeq hands out engine ids for affinity diagnostics.
var engineSeq atomic.Uint64

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{
		id:   engineSeq.Add(1),
		live: map[*Proc]struct{}{},
	}
	e.q.init()
	return e
}

// ID returns the engine's process-unique id (used in diagnostics).
func (e *Engine) ID() uint64 { return e.id }

// mustOwn panics when p belongs to a different engine than e. It is the
// engine-affinity guard: with many isolated engines running concurrently
// (one per experiment cell), accidentally sharing a Chan, Signal,
// Resource or Completion across engines would corrupt both simulations
// silently — this turns the bug into an immediate diagnostic.
func (e *Engine) mustOwn(p *Proc, what string) {
	if p.e != e {
		panic(fmt.Sprintf(
			"sim: engine affinity violation: proc %q of engine #%d called %s on an object of engine #%d",
			p.name, p.e.id, what, e.id))
	}
}

// mustAlive panics when the engine was shut down: a scheduling call on a
// dead engine means a stale reference leaked out of a finished
// experiment cell (the classic cross-cell sharing bug).
func (e *Engine) mustAlive(what string) {
	if e.dead {
		panic(fmt.Sprintf(
			"sim: engine #%d used after Shutdown (%s): stale reference from a finished cell?", e.id, what))
	}
}

// touch brackets a state mutation with a compare-and-swap marker. Legal
// use is strictly single-threaded (the handoff discipline), so a CAS
// collision means two goroutines are inside the same engine at once —
// almost always an object shared across concurrently-running engines.
func (e *Engine) touch(what string) {
	if !e.busy.CompareAndSwap(0, 1) {
		panic(fmt.Sprintf(
			"sim: engine #%d touched concurrently from two goroutines (%s): cross-engine sharing?", e.id, what))
	}
}

// untouch releases the marker set by touch.
func (e *Engine) untouch() { e.busy.Store(0) }

// Shutdown stops every parked process's coroutine: each unwinds (its
// defers run) and its goroutine exits before Shutdown returns. Call it
// when a simulation is abandoned (testbed teardown); the engine must not
// be running. The engine remains usable only for inspection afterward.
func (e *Engine) Shutdown() {
	e.dead = true
	if e.obs != nil {
		e.obs.Shutdown(e.now)
	}
	for p := range e.live {
		p.stop()
		p.exit()
	}
	e.live = map[*Proc]struct{}{}
	e.payloads.free = [payloadClasses][]*Payload{}
	e.q = calendar{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Traced reports whether a trace hook is installed; models use it to
// skip formatting work on untraced runs.
func (e *Engine) Traced() bool { return e.TraceEv != nil }

// Tracev emits a trace line from component comp if tracing is enabled.
// kind classifies it ("fault", "retry", ...); plain progress lines leave
// it empty.
func (e *Engine) Tracev(comp, kind, format string, args ...interface{}) {
	if e.TraceEv != nil {
		e.TraceEv(e.now, comp, kind, fmt.Sprintf(format, args...))
	}
}

// SetObserver installs obs on the engine's observability stream. A second
// call tees to both observers rather than silently replacing the first.
func (e *Engine) SetObserver(obs Observer) {
	if e.obs != nil {
		e.obs = teeObserver{e.obs, obs}
		return
	}
	e.obs = obs
}

// Observing reports whether an observer is installed. Instrumentation
// sites guard attribute construction on it so disabled runs stay free.
func (e *Engine) Observing() bool { return e.obs != nil }

// SpanOpen opens a span starting now and returns its id (0 when no
// observer is installed). Span ids are per-engine, so concurrent isolated
// engines produce identical streams regardless of worker interleaving.
func (e *Engine) SpanOpen(comp, kind string, attrs ...Attr) SpanID {
	return e.SpanOpenAt(e.now, comp, kind, attrs...)
}

// SpanOpenAt opens a span whose start time is known explicitly — possibly
// in the future, for stages whose schedule is decided at call time (a
// cut-through wire reservation occupies the link later). Starts before now
// are allowed down to 0; future starts must be closed at or after them.
func (e *Engine) SpanOpenAt(at Time, comp, kind string, attrs ...Attr) SpanID {
	if e.obs == nil {
		return 0
	}
	if at < 0 {
		at = 0
	}
	e.spanSeq++
	id := SpanID(e.spanSeq)
	e.obs.SpanOpen(id, at, comp, kind, attrs)
	return id
}

// SpanClose ends a span now. Closing the zero SpanID is a no-op.
func (e *Engine) SpanClose(id SpanID) { e.SpanCloseAt(id, e.now) }

// SpanCloseAt ends a span at an explicit time, possibly in the future —
// used when a stage's completion instant is already known at scheduling
// time (a posted write's delivery, a reserved DMA's finish).
func (e *Engine) SpanCloseAt(id SpanID, at Time) {
	if id == 0 || e.obs == nil {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.obs.SpanClose(id, at)
}

// Metric records one sample of a virtual-time metric series (queue depth,
// in-flight bytes, link utilization) when an observer is installed.
func (e *Engine) Metric(comp, name string, value float64) {
	if e.obs != nil {
		e.obs.MetricSample(e.now, comp, name, value)
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality. Scheduling on a shut-down engine,
// or concurrently with another goroutine, panics with an engine-affinity
// diagnostic.
//
//putget:hot
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, fn)
}

// schedule is the shared insertion path for At and AtTimer; it returns
// the event's node. The affinity bracket is inlined (no defer) — this
// runs once per scheduled event and is the hottest function in the
// simulator.
//
//putget:hot
func (e *Engine) schedule(t Time, fn func()) int32 {
	e.mustAlive("At")
	e.touch("At")
	if t < e.now {
		e.untouch()
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	i := e.q.push(t, e.seq, fn, e.now)
	e.untouch()
	return i
}

// After schedules fn to run d after the current time.
//
//putget:hot
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// WakeInPlace runs a wakeup at t in place when it would be the loop's
// next event — t is within the run's bound, no Stop is pending, and
// nothing is queued at or before t — and reports whether it did. The
// clock, the sequence number and the executed count advance exactly as
// if the loop had popped an event at t. Proc.SleepUntil and callbacks
// that replay a process's wakeups share this one rule.
//
//putget:hot
func (e *Engine) WakeInPlace(t Time) bool {
	if e.blocked(t) {
		return false
	}
	e.seq++
	e.executed++
	e.now = t
	return true
}

// blocked reports whether a wakeup at t must wait for the loop: t is
// past the run's bound, a Stop is pending, or an event is queued at or
// before t. It stays out of line so that WakeInPlace inlines.
//
//go:noinline
//putget:hot
func (e *Engine) blocked(t Time) bool {
	return t > e.bound || e.stopped || e.q.n > 0 && e.q.nodes[e.q.locate(e.now)].at <= t
}

// Bound returns the time limit of the current Run/RunUntil: events
// after it do not run before the call returns.
func (e *Engine) Bound() Time { return e.bound }

// Stop makes the engine stop executing events: a running Run/RunUntil
// returns after the current event completes, and a Stop issued while the
// engine is idle makes the next Run/RunUntil return before executing
// anything (the stop is consumed either way). Pending events remain
// queued; a subsequent Run continues.
func (e *Engine) Stop() { e.stopped = true }

// maxTime is Run's bound: later than any schedulable instant.
const maxTime = Time(1<<63 - 1)

// loop dispatches events in time order on the Run caller's goroutine
// until the queue drains, the bound passes, or Stop is consumed. A panic
// in an event or in a process it resumes comes out of it.
//
//putget:hot
func (e *Engine) loop() {
	for !e.stopped && e.q.n > 0 {
		i := e.q.locate(e.now)
		at := e.q.nodes[i].at
		if at > e.bound {
			break
		}
		fn := e.q.remove(i, e.now)
		e.now = at
		e.executed++
		fn()
	}
}

// Run executes events in time order until the queue drains or Stop is
// called. Processes blocked on signals with no pending wakeup are considered
// quiescent; Run returns with them still parked.
func (e *Engine) Run() {
	e.mustAlive("Run")
	e.bound = maxTime
	e.loop()
	e.stopped = false
}

// RunUntil executes events until virtual time t is reached (events at
// exactly t still run), the queue drains, or Stop is called.
func (e *Engine) RunUntil(t Time) {
	e.mustAlive("RunUntil")
	e.bound = t
	e.loop()
	if e.now < t && !e.stopped {
		e.now = t
	}
	e.stopped = false
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.n }

// Executed reports the total number of events the engine has run — a
// deterministic measure of simulation work (virtual-event throughput
// benchmarks divide it by wall time).
func (e *Engine) Executed() uint64 { return e.executed }

// Spawned reports the number of processes ever spawned on the engine.
func (e *Engine) Spawned() uint64 { return e.spawned }

// Handoffs reports the number of switches into a process coroutine: its
// start and every resume. A sleep that wakes in place (see
// Proc.SleepUntil) does not switch and is not counted.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// Live reports the number of processes that have started but not finished.
func (e *Engine) Live() int { return e.procs }
