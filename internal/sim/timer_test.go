package sim

import (
	"testing"
	"testing/quick"
)

func TestTimerCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AtTimer(100, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer not active after arming")
	}
	if !tm.Cancel() {
		t.Fatal("Cancel returned false on an armed timer")
	}
	if tm.Active() {
		t.Fatal("timer active after Cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if e.Executed() != 0 {
		t.Fatalf("Executed = %d, want 0: a cancelled event must not count", e.Executed())
	}
}

func TestTimerCancelAfterFiringIsNoop(t *testing.T) {
	e := NewEngine()
	count := 0
	tm := e.AfterTimer(10, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if tm.Active() {
		t.Fatal("timer active after firing")
	}
	if tm.Cancel() {
		t.Fatal("Cancel returned true on a fired timer")
	}
	if count != 1 {
		t.Fatalf("count = %d after late Cancel, want 1", count)
	}
}

func TestTimerSlotReuseInvalidatesStaleHandle(t *testing.T) {
	e := NewEngine()
	first := e.AtTimer(10, func() {})
	e.Run() // fires; its slot returns to the free list
	second := e.AtTimer(20, func() {})
	if first.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot's timer")
	}
	if !second.Active() {
		t.Fatal("recycled-slot timer should still be armed")
	}
	if !second.Cancel() {
		t.Fatal("live handle failed to cancel")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Fatal("zero Timer active")
	}
	if tm.Cancel() {
		t.Fatal("zero Timer Cancel returned true")
	}
}

func TestTimerCancelMidHeapPreservesOrder(t *testing.T) {
	// Cancelling events from the middle of the queue must not disturb the
	// dispatch order of the survivors, whatever the arming order was.
	f := func(offsets []uint8, cancelMask uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var timers []Timer
		for _, off := range offsets {
			at := Time(off)
			timers = append(timers, e.AtTimer(at, func() { fired = append(fired, at) }))
		}
		cancelled := 0
		for i, tm := range timers {
			if cancelMask&(1<<(i%16)) != 0 {
				tm.Cancel()
				cancelled++
			}
		}
		e.Run()
		if len(fired) != len(offsets)-cancelled {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPendingStopHonoredByNextRun(t *testing.T) {
	// A Stop issued while the engine is idle must make the next Run return
	// before executing anything. The old loop reset the flag on entry,
	// silently discarding the stop.
	e := NewEngine()
	count := 0
	e.At(10, func() { count++ })
	e.Stop()
	e.Run()
	if count != 0 {
		t.Fatalf("count = %d: Run executed events despite a pending Stop", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run() // the stop was consumed; this run proceeds
	if count != 1 {
		t.Fatalf("count = %d after second Run, want 1", count)
	}
}

func TestPendingStopHonoredByRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(10, func() { count++ })
	e.Stop()
	e.RunUntil(100)
	if count != 0 {
		t.Fatalf("count = %d: RunUntil executed events despite a pending Stop", count)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v: a stopped RunUntil must not advance the clock", e.Now())
	}
	e.RunUntil(100)
	if count != 1 || e.Now() != 100 {
		t.Fatalf("count = %d, Now = %v after second RunUntil, want 1, 100", count, e.Now())
	}
}

func TestEventPanicPropagatesFromProcCarriedLoop(t *testing.T) {
	// An event callback that panics must surface out of Run with its
	// original value while a process is resident, sleeping around it.
	e := NewEngine()
	e.Spawn("resident", func(p *Proc) {
		for {
			p.Sleep(5) // its wakeups at t=5 and t=10 surround the event
		}
	})
	e.At(10, func() { panic("boom from event") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("event panic did not propagate out of Run")
		} else if r != "boom from event" {
			t.Fatalf("panic = %v, want original value", r)
		}
		e.Shutdown()
	}()
	e.Run()
}
