package gpusim

import (
	"fmt"

	"putget/internal/memspace"
	"putget/internal/sim"
)

// Warp run-ahead. A warp that is the only live warp on its GPU runs a
// chain of GPU-local ops (Exec, SyncWarp, LdGlobalU64, StGlobalU64 and a
// single-warp SyncThreads) as one burst on a local clock instead of
// switching back to the event loop at every sleep. The burst books the
// SM issue port, probes L2, loads and bumps counters at once, and keeps
// its stores in a store buffer. A replay step then runs the chain's
// wake instants as engine callbacks: each makes the in-place-or-schedule
// decision the warp's sleep would have made at that moment and lands
// that instant's stores, and the last one resumes the warp. Every event
// keeps its (at, seq), so only the number of coroutine switches changes.
//
// The burst is exact only while nothing else can observe or change the
// GPU's state before the instants it runs at. A window opens at a local
// op's sleep that would otherwise switch, and only when the GPU has one
// live warp, no launch pending, idle copy engines and no observer or
// trace hook (spans read the engine clock). Its horizon bounds every
// early effect: the first landing among the writes in flight to the
// GPU, one PCIe flight from now for a write not yet posted, one launch
// overhead from now for a new warp, and the run's bound. Every other
// warp op syncs first: the warp parks until the replay has caught the
// engine up with its clock.

// maxWindowWakes caps the wakes one window records, so a local loop that
// advances no time still syncs.
const maxWindowWakes = 64

// runAhead is a GPU's run-ahead window. Only the GPU's one live warp can
// open one, so the GPU keeps a single window and reuses its buffers
// across windows and launches.
type runAhead struct {
	sim.Step[*runAhead]
	g *GPU
	w *Warp // the window's warp, from its open until its last wake

	// open is set while the warp's burst runs: the warp's clock is the
	// last wake, ahead of the engine's.
	open bool
	h    sim.Time // no early effect at or after it
	// wakes are the burst's wake instants; the replay has run those
	// before next. ahead is the last wake after which the burst applied
	// an early effect (-1: none), so the window's effects lead the
	// engine while ahead >= next.
	wakes []sim.Time
	next  int
	ahead int
	// stores is the store buffer: the burst's device-memory stores in
	// program order, each landed by the replay at its wake; landed
	// counts those that have.
	stores []bufStore
	landed int

	// then, when set, runs at the window's last wake instead of the
	// warp's resume: a spin that the window's end leaves mid-loop goes
	// on from there as a callback (see spin.go).
	then func()

	off bool // test-only: never open a window
}

// bufStore is one buffered 64-bit store, made after wake.
type bufStore struct {
	wake int
	addr memspace.Addr
	v    uint64
}

func (ra *runAhead) init(g *GPU) {
	ra.g, ra.ahead = g, -1
	ra.Init(g.e, ra)
}

// leads reports whether the window has effects the engine has not
// reached yet.
func (ra *runAhead) leads() bool { return ra.ahead >= ra.next }

// canRunAhead reports whether a warp of g may open a window.
func (g *GPU) canRunAhead() bool {
	return g.warps == 1 && g.launching == 0 && g.copying == 0 &&
		!g.e.Observing() && !g.e.Traced() && !g.ra.off
}

// horizon returns the instant before which a window opened now may apply
// its effects early: nothing outside the warp can change or observe the
// GPU's state before it.
func (g *GPU) horizon() sim.Time {
	h := g.f.InboundHorizon(g.ep)
	if t := g.e.Now().Add(g.cfg.LaunchOverhead); t < h {
		h = t
	}
	if b := g.e.Bound(); b < h {
		h = b + 1 // RunUntil returns with no effect ahead of its clock
	}
	return h
}

// now returns the warp's clock: the last wake of its open window, else
// the engine's.
func (w *Warp) now() sim.Time {
	if ra := &w.g.ra; ra.open {
		return ra.wakes[len(ra.wakes)-1]
	}
	return w.g.e.Now()
}

// sleep is a local op's sleep until t: the warp runs on when advance
// lets it, else it parks until the replay or a wake event resumes it.
//
//putget:hot
func (w *Warp) sleep(t sim.Time) {
	switch w.advance(t) {
	case windowEnds:
		w.p.Await()
	case mustWait:
		w.g.e.At(t, w.p.WakeFunc())
		w.p.Await()
	}
}

// wakeHow is advance's verdict on a local op's sleep.
type wakeHow uint8

const (
	runsOn     wakeHow = iota // the warp's clock is t and it runs on
	windowEnds                // t is the window's last wake: the replay ends there
	mustWait                  // t is a wake event the caller schedules
)

// advance is the switch-free part of a local op's sleep until t, made
// from the warp's own context. Inside a window it records t as the next
// wake and runs on, unless t reaches the horizon or the wake cap: then t
// is the window's last wake. Outside a window it wakes in place when it
// can; when it would switch and the GPU allows, it opens a window
// instead.
//
//putget:hot
func (w *Warp) advance(t sim.Time) wakeHow {
	ra := &w.g.ra
	if ra.open {
		ra.ahead = len(ra.wakes) - 1
		ra.wakes = append(ra.wakes, t)
		if t >= ra.h || len(ra.wakes) == maxWindowWakes {
			ra.open = false
			return windowEnds
		}
		return runsOn
	}
	e := w.g.e
	if e.WakeInPlace(t) {
		return runsOn
	}
	if w.g.canRunAhead() {
		if h := w.g.horizon(); t < h {
			ra.w, ra.h, ra.open = w, h, true
			ra.wakes = append(ra.wakes, t)
			ra.At(t, (*runAhead).replay)
			return runsOn
		}
	}
	return mustWait
}

// sync ends the warp's window, if one is open: the warp parks until the
// replay has run its last wake, so the engine's clock is the warp's.
// Every op that is not local calls it first.
func (w *Warp) sync() {
	if ra := &w.g.ra; ra.open {
		ra.open = false
		w.p.Await()
	}
}

// replay runs the window's wakes from next on, at the engine's clock: it
// lands the stores made after each, then wakes the next in place or
// schedules itself there, exactly as the warp's sleep would have. At the
// last wake it resumes the warp, or runs then.
//
//putget:hot
func (ra *runAhead) replay() {
	e := ra.g.e
	for {
		for ra.landed < len(ra.stores) && ra.stores[ra.landed].wake == ra.next {
			s := ra.stores[ra.landed]
			ra.g.writeWord(s.addr, s.v)
			ra.landed++
		}
		ra.next++
		if ra.next == len(ra.wakes) {
			wake := ra.then
			if wake == nil {
				wake = ra.w.p.WakeFunc()
			}
			ra.w, ra.wakes, ra.stores, ra.then = nil, ra.wakes[:0], ra.stores[:0], nil
			ra.next, ra.ahead, ra.landed = 0, -1, 0
			wake()
			return
		}
		if t := ra.wakes[ra.next]; !e.WakeInPlace(t) {
			ra.At(t, (*runAhead).replay)
			return
		}
	}
}

// store buffers a burst's 64-bit store of v at addr until the replay
// reaches the wake it follows. A store that would fail is made at once,
// so it panics as it would have.
//
//putget:hot
func (ra *runAhead) store(addr memspace.Addr, v uint64) {
	if !ra.g.devMem.Contains(addr + 7) {
		ra.g.writeWord(addr, v)
		return
	}
	ra.ahead = len(ra.wakes) - 1
	ra.stores = append(ra.stores, bufStore{wake: ra.ahead, addr: addr, v: v})
}

// forward returns the 64-bit word at addr as the burst sees it: v, read
// from memory, overlaid in program order with the buffered stores that
// overlap it.
//
//putget:hot
func (ra *runAhead) forward(addr memspace.Addr, v uint64) uint64 {
	for _, s := range ra.stores[ra.landed:] {
		switch d := int64(s.addr - addr); {
		case d == 0:
			v = s.v
		case d > -8 && d < 8:
			// A partial overlap: shift the stored word's bytes into place.
			if d > 0 {
				m := ^uint64(0) << (8 * d)
				v = v&^m | s.v<<(8*d)&m
			} else {
				m := ^uint64(0) >> (8 * -d)
				v = v&^m | s.v>>(8*-d)&m
			}
		}
	}
	return v
}

// settle syncs g's window when its burst is running: the caller is then
// the window's warp itself, about to act on the GPU outside a local op
// (a zero-time host write, a launch or a copy from device code).
func (g *GPU) settle() {
	if g.ra.open {
		g.ra.w.sync()
	}
}

// mustNotLead is the run-ahead guard: it panics when the GPU's state is
// read or changed from outside the window's warp while the window's
// effects lead the engine clock, which a horizon that is too late would
// allow. The warp's own burst may read its state.
func (g *GPU) mustNotLead(what string) {
	if ra := &g.ra; ra.leads() && !ra.open {
		panic(fmt.Sprintf("gpusim: %s: %s while warp %s runs ahead of the engine clock (run-ahead horizon too late)",
			g.cfg.Name, what, ra.w.p.Name()))
	}
}
