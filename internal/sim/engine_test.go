package sim

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order broken: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestAfterFromEventContext(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %v, want 150", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i*100), func() { count++ })
	}
	e.RunUntil(500)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want 500", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count after Run = %d, want 10", count)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1234)
	if e.Now() != 1234 {
		t.Fatalf("Now = %v, want 1234", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 after Stop", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 after resume", count)
	}
}

func TestProcSleepSequence(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(100)
			wakes = append(wakes, p.Now())
		}
	})
	e.Run()
	for i, w := range wakes {
		if w != Time((i+1)*100) {
			t.Fatalf("wake %d at %v, want %v", i, w, (i+1)*100)
		}
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "b")
			}
		})
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleave: %v vs %v", first, again)
			}
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childRan = c.Now()
		})
		p.Sleep(1000)
	})
	e.Run()
	if childRan != 150 {
		t.Fatalf("child finished at %v, want 150", childRan)
	}
}

func TestSleepUntilPastPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
			// Let the goroutine exit cleanly through the spawn wrapper.
		}()
		p.Sleep(100)
		p.SleepUntil(50)
	})
	e.Run()
	if !panicked {
		t.Fatal("expected SleepUntil in the past to panic")
	}
}

// Property: for any set of event offsets, events fire in nondecreasing
// time order and the clock ends at the max offset.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		e := NewEngine()
		var seen []Time
		var max Time
		for _, off := range offsets {
			at := Time(off)
			if at > max {
				max = at
			}
			e.At(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		if len(seen) != len(offsets) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{1500 * Nanosecond, "1.5us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestBytesAt(t *testing.T) {
	// 1000 bytes at 1 GB/s = 1 us.
	if got := BytesAt(1000, 1e9); got != Duration(Microsecond) {
		t.Fatalf("BytesAt = %v, want 1us", got)
	}
	if got := BytesAt(0, 1e9); got != 0 {
		t.Fatalf("BytesAt(0) = %v, want 0", got)
	}
	if got := BytesAt(-5, 1e9); got != 0 {
		t.Fatalf("BytesAt(-5) = %v, want 0", got)
	}
}

func TestShutdownReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	engines := make([]*Engine, 50)
	for i := range engines {
		e := NewEngine()
		ch := NewChan[int](e)
		sig := NewSignal(e)
		for j := 0; j < 4; j++ {
			e.Spawn("parked-ch", func(p *Proc) { ch.Recv(p) })
			e.Spawn("parked-sig", func(p *Proc) { sig.Wait(p) })
		}
		e.Run()
		engines[i] = e
	}
	mid := runtime.NumGoroutine()
	if mid < before+300 {
		t.Fatalf("expected ~400 parked goroutines, have %d -> %d", before, mid)
	}
	for _, e := range engines {
		e.Shutdown()
		if e.Live() != 0 {
			t.Fatalf("Live = %d after Shutdown", e.Live())
		}
	}
	// Give the runtime a moment to reap.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+20; i++ {
		runtime.Gosched()
	}
	after := runtime.NumGoroutine()
	if after > before+20 {
		t.Fatalf("goroutines leaked after Shutdown: %d -> %d -> %d", before, mid, after)
	}
}

func TestShutdownMidSleepProc(t *testing.T) {
	e := NewEngine()
	cleanExit := false
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { cleanExit = true }()
		p.Sleep(Duration(1e12)) // 1s of virtual time, never reached
	})
	e.RunUntil(10)
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d", e.Live())
	}
	_ = cleanExit // defers do run during the kill unwind
}

func TestEngineUsableForInspectionAfterShutdown(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) { p.Sleep(100) })
	e.Run()
	e.Shutdown()
	if e.Now() != 100 {
		t.Fatalf("Now = %v", e.Now())
	}
}

// TestEngineLoopsDoNotAllocate pins the engine's hot paths at zero
// allocations per op: schedule+dispatch of one event, timer arm/cancel
// churn (the KV coordinator's deadline pattern), and one
// engine→proc→engine handoff.
func TestEngineLoopsDoNotAllocate(t *testing.T) {
	fn := func() {}

	sched := NewEngine()
	defer sched.Shutdown()
	schedule := func() {
		sched.At(sched.Now()+1, fn)
		sched.Run()
	}

	timers := NewEngine()
	defer timers.Shutdown()
	churn := func() {
		t1 := timers.AfterTimer(1, fn)
		timers.AfterTimer(2, fn)
		t1.Cancel()
		timers.Run()
	}

	hand := NewEngine()
	defer hand.Shutdown()
	hand.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	hand.RunUntil(0)
	var tick Time
	handoff := func() {
		tick++
		hand.RunUntil(tick)
	}

	for _, tc := range []struct {
		name string
		op   func()
	}{{"schedule", schedule}, {"timer", churn}, {"handoff", handoff}} {
		if got := testing.AllocsPerRun(1000, tc.op); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}
