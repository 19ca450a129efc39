// iter needs Go 1.23, as in proc.go (heapEngine is built on it).
//go:build go1.23

package sim

import (
	"fmt"
	"testing"
)

// queueOps is the engine surface a queue program drives, so one driver
// runs on the Engine and on the heapEngine reference.
type queueOps struct {
	now      func() Time
	seq      func() uint64
	pending  func() int
	executed func() uint64
	at       func(t Time, fn func())
	atTimer  func(t Time, fn func()) (cancel, active func() bool)
	runUntil func(t Time)
	run      func()
	stop     func()
	// spawn starts body as a process; body sleeps through the function
	// it is handed.
	spawn func(body func(sleep func(Duration)))
}

func engineOps(e *Engine) queueOps {
	return queueOps{
		now:      e.Now,
		seq:      func() uint64 { return e.seq },
		pending:  e.Pending,
		executed: e.Executed,
		at:       e.At,
		atTimer: func(t Time, fn func()) (func() bool, func() bool) {
			tm := e.AtTimer(t, fn)
			return tm.Cancel, tm.Active
		},
		runUntil: e.RunUntil,
		run:      e.Run,
		stop:     e.Stop,
		spawn: func(body func(sleep func(Duration))) {
			e.Spawn("fuzz", func(p *Proc) { body(p.Sleep) })
		},
	}
}

func heapOps(h *heapEngine) queueOps {
	return queueOps{
		now:      func() Time { return h.now },
		seq:      func() uint64 { return h.seq },
		pending:  func() int { return len(h.events) },
		executed: func() uint64 { return h.executed },
		at:       h.At,
		atTimer: func(t Time, fn func()) (func() bool, func() bool) {
			idx, gen := h.AtTimer(t, fn)
			return func() bool { return h.Cancel(idx, gen) }, func() bool { return h.Active(idx, gen) }
		},
		runUntil: h.RunUntil,
		run:      h.Run,
		stop:     func() { h.stopped = true },
		spawn:    h.Spawn,
	}
}

// queueTrace runs the program data encodes and returns its trace: every
// callback with the (at, seq) it was scheduled with, every process wake,
// every Cancel result, and after each top-level step the clock, the
// sequence counter, Pending, Executed and the Active of the latest 64
// timers (of every timer at the end). Callbacks and processes read their
// next move from data as they run, so two engines read the same bytes
// only while their runs agree.
func queueTrace(data []byte, x queueOps) []string {
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("t=%d seq=%d exec=%d pend=%d: ", x.now(), x.seq(), x.executed(), x.pending())+
			fmt.Sprintf(format, args...))
	}
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	// delayOf maps a byte to a delay: zeros, 16 ns steps up to 4 us (a
	// repeated byte is a tie) and 20 us outliers.
	delayOf := func(b int) Duration {
		switch {
		case b%8 == 0:
			return 0
		case b >= 248:
			return 20 * Microsecond
		}
		return Duration(b) * 16 * Nanosecond
	}
	delay := func() Duration {
		b, _ := next()
		return delayOf(b)
	}

	var timers []queueTimer
	ids := 0
	var react func()
	schedule := func(d Duration, cancellable bool) {
		ids++
		id := ids
		var seq uint64
		fn := func() {
			logf("fire %d (seq %d)", id, seq)
			react()
		}
		if cancellable {
			c, a := x.atTimer(x.now().Add(d), fn)
			timers = append(timers, queueTimer{c, a})
		} else {
			x.at(x.now().Add(d), fn)
		}
		seq = x.seq()
	}
	cancel := func() {
		b, ok := next()
		if ok && len(timers) > 0 {
			k := b % len(timers)
			logf("cancel %d: %v", k, timers[k].cancel())
		}
	}
	react = func() {
		b, ok := next()
		if !ok {
			return
		}
		switch b % 8 {
		case 3:
			schedule(delay(), false)
		case 4:
			schedule(delay(), true)
		case 5:
			cancel()
		case 6:
			x.stop()
		case 7:
			schedule(delay(), false)
			schedule(delay(), true)
		}
	}
	procs := 0
	for {
		b, ok := next()
		if !ok {
			break
		}
		switch b % 8 {
		case 0:
			schedule(delay(), false)
		case 1:
			schedule(delay(), true)
		case 2:
			cancel()
		case 3:
			x.runUntil(x.now().Add(delay()))
		case 4:
			x.stop()
		case 5:
			procs++
			id := procs
			x.spawn(func(sleep func(Duration)) {
				for {
					b, ok := next()
					if !ok {
						return
					}
					switch b % 4 {
					case 0, 1:
						sleep(delay())
						logf("proc %d woke", id)
					case 2:
						schedule(delay(), b%8 == 6)
					case 3:
						return
					}
				}
			})
		case 6:
			// A burst deepens the queue: up to 127 events whose delays a
			// second byte seeds, many of them tied.
			n, _ := next()
			s, _ := next()
			for i := 0; i < n%128; i++ {
				schedule(delayOf((s+i*i*7)%256), i%3 == 0)
			}
		case 7:
			x.run()
		}
		logf("step %d, recent timers active %s", b%8, actives(timers[max(0, len(timers)-64):]))
	}
	x.run()
	logf("end, timers active %s", actives(timers))
	return trace
}

type queueTimer struct{ cancel, active func() bool }

// actives renders each timer's Active as a 0/1 string.
func actives(timers []queueTimer) string {
	b := make([]byte, len(timers))
	for i, tm := range timers {
		b[i] = '0'
		if tm.active() {
			b[i] = '1'
		}
	}
	return string(b)
}

// FuzzEngineQueue runs random programs of At, AtTimer, Cancel, RunUntil,
// Run, Stop and process sleeps on the engine and on the heap reference
// and requires identical traces: the calendar queue must pop the exact
// (at, seq) order, count Pending and Executed, and report Timer.Active
// as the heap did.
func FuzzEngineQueue(f *testing.F) {
	// A process sleeps past a queued event, then schedules before it:
	// the peek moved the cursor beyond the new event's window.
	f.Add([]byte{0, 248, 5, 0, 40, 2, 9, 0, 30, 2, 17, 7})
	// Ties: a burst of equal delays between cancellations.
	f.Add([]byte{6, 200, 0, 1, 8, 2, 3, 2, 7, 7})
	// Deep queues grow and shrink the ring.
	f.Add([]byte{6, 127, 11, 6, 127, 90, 6, 127, 3, 6, 127, 40, 6, 127, 5, 3, 60, 2, 5, 7})
	rng := uint64(0x9e3779b97f4a7c15)
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		for k := 0; k < 3; k++ {
			b := make([]byte, n)
			for i := range b {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				b[i] = byte(rng >> 32)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		defer e.Shutdown()
		got := queueTrace(data, engineOps(e))
		h := &heapEngine{}
		defer h.Shutdown()
		want := queueTrace(data, heapOps(h))
		for i := range got {
			if i >= len(want) {
				t.Fatalf("engine trace runs past the reference's %d lines: %s", len(want), got[i])
			}
			if got[i] != want[i] {
				t.Fatalf("trace line %d:\n engine:    %s\n reference: %s", i, got[i], want[i])
			}
		}
		if len(got) < len(want) {
			t.Fatalf("engine trace ends after %d lines, reference continues: %s", len(got), want[len(got)])
		}
	})
}
