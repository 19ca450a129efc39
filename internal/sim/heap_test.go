// iter needs Go 1.23, as in proc.go.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// heapEngine is the reference the calendar queue is checked against
// (see FuzzEngineQueue): the value-typed 4-ary min-heap the engine used
// before, with Engine's scheduling, timer, Run/RunUntil/Stop and
// in-place-wake rules restated over it. Any structure that pops the
// (at, seq) total order runs the same simulation, so the two must agree
// event for event.
type heapEngine struct {
	now, bound Time
	seq        uint64
	executed   uint64
	stopped    bool
	events     []heapEvent
	timers     []heapTimer
	freeT      []int32
	stops      []func() // coroutine stops, for shutdown
}

// heapEvent is one heap entry; tslot links a cancellable event to its
// timer slot, -1 for plain events.
type heapEvent struct {
	at    Time
	seq   uint64
	fn    func()
	tslot int32
}

// heapTimer records a cancellable event's heap position (-1 once it
// fired or was cancelled) and a generation that invalidates handles
// when the slot is recycled.
type heapTimer struct {
	pos int32
	gen uint32
}

func evLess(a, b *heapEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// setPos records an event's current heap index in its timer slot.
func (h *heapEngine) setPos(i int) {
	if t := h.events[i].tslot; t >= 0 {
		h.timers[t].pos = int32(i)
	}
}

// siftUp restores the heap invariant after inserting at index i.
func (h *heapEngine) siftUp(i int) {
	ev := h.events[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !evLess(&ev, &h.events[parent]) {
			break
		}
		h.events[i] = h.events[parent]
		h.setPos(i)
		i = parent
	}
	h.events[i] = ev
	h.setPos(i)
}

// siftDown restores the heap invariant below index i and reports whether
// the element moved.
func (h *heapEngine) siftDown(i int) bool {
	n := len(h.events)
	ev := h.events[i]
	start := i
	for {
		l := 4*i + 1
		if l >= n {
			break
		}
		m := l
		for c := l + 1; c < l+4 && c < n; c++ {
			if evLess(&h.events[c], &h.events[m]) {
				m = c
			}
		}
		if !evLess(&h.events[m], &ev) {
			break
		}
		h.events[i] = h.events[m]
		h.setPos(i)
		i = m
	}
	h.events[i] = ev
	h.setPos(i)
	return i != start
}

// removeAt deletes the event at heap index i and returns it.
func (h *heapEngine) removeAt(i int) heapEvent {
	ev := h.events[i]
	if ev.tslot >= 0 {
		s := &h.timers[ev.tslot]
		s.pos = -1
		s.gen++
		h.freeT = append(h.freeT, ev.tslot)
	}
	n := len(h.events) - 1
	if i != n {
		h.events[i] = h.events[n]
		h.setPos(i)
	}
	h.events = h.events[:n]
	if i < n && !h.siftDown(i) {
		h.siftUp(i)
	}
	return ev
}

func (h *heapEngine) schedule(t Time, fn func(), tslot int32) {
	if t < h.now {
		panic(fmt.Sprintf("heapEngine: scheduling event at %v before now %v", t, h.now))
	}
	h.seq++
	h.events = append(h.events, heapEvent{at: t, seq: h.seq, fn: fn, tslot: tslot})
	h.siftUp(len(h.events) - 1)
}

func (h *heapEngine) At(t Time, fn func()) { h.schedule(t, fn, -1) }

// AtTimer schedules fn at t and returns its slot and generation.
func (h *heapEngine) AtTimer(t Time, fn func()) (int32, uint32) {
	var idx int32
	if k := len(h.freeT); k > 0 {
		idx = h.freeT[k-1]
		h.freeT = h.freeT[:k-1]
	} else {
		h.timers = append(h.timers, heapTimer{})
		idx = int32(len(h.timers) - 1)
	}
	h.schedule(t, fn, idx)
	return idx, h.timers[idx].gen
}

func (h *heapEngine) Active(idx int32, gen uint32) bool {
	s := h.timers[idx]
	return s.gen == gen && s.pos >= 0
}

func (h *heapEngine) Cancel(idx int32, gen uint32) bool {
	if !h.Active(idx, gen) {
		return false
	}
	h.removeAt(int(h.timers[idx].pos))
	return true
}

func (h *heapEngine) loop() {
	for !h.stopped && len(h.events) > 0 && h.events[0].at <= h.bound {
		ev := h.removeAt(0)
		h.now = ev.at
		h.executed++
		ev.fn()
	}
}

func (h *heapEngine) Run() {
	h.bound = maxTime
	h.loop()
	h.stopped = false
}

func (h *heapEngine) RunUntil(t Time) {
	h.bound = t
	h.loop()
	if h.now < t && !h.stopped {
		h.now = t
	}
	h.stopped = false
}

// Spawn starts body as a coroutine at the current time; body sleeps
// through the function it is handed, which wakes in place under the
// same rule as Proc.SleepUntil.
func (h *heapEngine) Spawn(body func(sleep func(Duration))) {
	var yield func(struct{}) bool
	var next func() (struct{}, bool)
	var stop func()
	next, stop = iter.Pull(func(y func(struct{}) bool) {
		yield = y
		defer func() {
			if r := recover(); r != nil && r != procKilled {
				panic(r)
			}
		}()
		body(func(d Duration) {
			t := h.now.Add(d)
			if t <= h.bound && !h.stopped && (len(h.events) == 0 || h.events[0].at > t) {
				h.seq++
				h.executed++
				h.now = t
				return
			}
			h.At(t, func() { next() })
			if !yield(struct{}{}) {
				panic(procKilled)
			}
		})
	})
	h.stops = append(h.stops, stop)
	h.At(h.now, func() { next() })
}

// Shutdown unwinds every parked coroutine.
func (h *heapEngine) Shutdown() {
	for _, stop := range h.stops {
		stop()
	}
}
