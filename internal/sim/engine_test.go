package sim

import (
	"runtime"
	"slices"
	"strings"
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
			// Let the process exit cleanly through the spawn wrapper.
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
// time order, events at equal times fire in schedule order, and the
// clock ends at the max offset.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		e := NewEngine()
		type firing struct {
			at Time
			k  int // schedule order
		}
		var seen []firing
		var max Time
		for k, off := range offsets {
			// Coarse offsets make ties common.
			at := Time(off % 64)
			if at > max {
				max = at
			}
			e.At(at, func() { seen = append(seen, firing{e.Now(), k}) })
		}
		e.Run()
		if len(seen) != len(offsets) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			a, b := seen[i-1], seen[i]
			if b.at < a.at || b.at == a.at && b.k < a.k {
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

// coroutineGoroutines counts the goroutines blocked in a coroutine
// switch: those of the processes that have not finished, on every engine
// of the test binary. Unlike runtime.NumGoroutine it ignores goroutines
// that start or end around a test for other reasons: under -race that
// count was seen to fall below its value from before the spawns.
func coroutineGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), " [coroutine]:\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestShutdownReleasesParkedGoroutines checks that Shutdown leaves no
// process goroutine behind by the time it returns: parked processes, and
// SpawnAt processes whose start event never ran.
func TestShutdownReleasesParkedGoroutines(t *testing.T) {
	before := coroutineGoroutines()
	engines := make([]*Engine, 50)
	for i := range engines {
		e := NewEngine()
		ch := NewChan[int](e)
		sig := NewSignal(e)
		for j := 0; j < 4; j++ {
			e.Spawn("parked-ch", func(p *Proc) { ch.Recv(p) })
			e.Spawn("parked-sig", func(p *Proc) { sig.Wait(p) })
			e.SpawnAt(1000, "never-started", func(p *Proc) {})
		}
		e.RunUntil(10)
		engines[i] = e
	}
	if mid := coroutineGoroutines(); mid != before+600 {
		t.Fatalf("%d process goroutines before Shutdown, want %d", mid-before, 600)
	}
	for _, e := range engines {
		e.Shutdown()
		if e.Live() != 0 {
			t.Fatalf("Live = %d after Shutdown", e.Live())
		}
	}
	if after := coroutineGoroutines(); after != before {
		t.Fatalf("%d process goroutines left after Shutdown", after-before)
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
// churn (the KV coordinator's deadline pattern), one
// engine→proc→engine handoff, Signal Wait/WaitUntil/Broadcast parks,
// Pulse wakes and contended Resource Acquire/Release — the last two with
// a process and a callback in each wait queue — and a pop, reschedule
// and timer arm/cancel in a queue 512 events deep.
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

	// One signal round: a waiter parks with Wait, then with a WaitUntil
	// that the signal beats, then with one that times out; Broadcast
	// wakes it twice.
	sig := NewEngine()
	defer sig.Shutdown()
	s := NewSignal(sig)
	sig.Spawn("waiter", func(p *Proc) {
		for {
			s.Wait(p)
			s.WaitUntil(p, p.Now()+10)
			s.WaitUntil(p, p.Now()+1)
		}
	})
	sig.Spawn("waker", func(p *Proc) {
		for {
			p.Sleep(1)
			s.Broadcast()
			p.Sleep(1)
			s.Broadcast()
			p.Sleep(8)
		}
	})
	sig.RunUntil(0)
	var sigTick Time
	signal := func() {
		sigTick += 10
		sig.RunUntil(sigTick)
	}
	signal()

	// One pulse round: a process and a callback wait on the signal and
	// wait again each time a Pulse wakes them.
	pul := NewEngine()
	defer pul.Shutdown()
	ps := NewSignal(pul)
	pul.Spawn("waiter", func(p *Proc) {
		for {
			ps.Wait(p)
		}
	})
	var rewait func()
	rewait = func() { ps.WaitFunc(rewait) }
	rewait()
	pul.Spawn("pulser", func(p *Proc) {
		for {
			p.Sleep(1)
			ps.Pulse()
		}
	})
	pul.RunUntil(0)
	var pulTick Time
	pulse := func() {
		pulTick += 2
		pul.RunUntil(pulTick)
	}
	pulse()

	// One contended resource round: two processes and a callback take
	// turns holding a single unit for one tick each.
	res := NewEngine()
	defer res.Shutdown()
	r := NewResource(res, 1)
	for i := 0; i < 2; i++ {
		res.Spawn("holder", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Sleep(1)
				r.Release()
			}
		})
	}
	var hold, release func()
	hold = func() { res.After(1, release) }
	release = func() {
		r.Release()
		r.AcquireFunc(hold)
	}
	r.AcquireFunc(hold)
	res.RunUntil(0)
	var resTick Time
	contend := func() {
		resTick += 3
		res.RunUntil(resTick)
	}
	contend()

	// A deep queue: 512 events over 0-4 us, 64 of them tied at one
	// instant. Each op pops one event, which reschedules itself, then
	// arms a timer among them and cancels it.
	deep := NewEngine()
	defer deep.Shutdown()
	var hops int
	var hop func()
	hop = func() {
		hops++
		deep.After(Duration(hops%64)*64*Nanosecond, hop)
		deep.Stop()
	}
	for i := 0; i < 512; i++ {
		at := Time(i%64) * 64 * Time(Nanosecond)
		if i < 64 {
			at = 2 * Time(Microsecond)
		}
		deep.At(at, hop)
	}
	depth := func() {
		deep.Run()
		deep.AfterTimer(2*Microsecond, fn).Cancel()
	}
	for i := 0; i < 1000; i++ {
		depth()
	}
	if deep.Pending() != 512 {
		t.Fatalf("deep queue holds %d events, want 512", deep.Pending())
	}

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"schedule", schedule}, {"timer", churn}, {"handoff", handoff}, {"signal", signal},
		{"pulse", pulse}, {"resource", contend}, {"deep", depth},
	} {
		if got := testing.AllocsPerRun(1000, tc.op); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}

// TestSpawnAndHandoffCounts pins the engine's proc counters: a lone
// process that sleeps wakes in place, so only its start switches into
// its coroutine; two processes taking turns switch on every wake.
func TestSpawnAndHandoffCounts(t *testing.T) {
	e := NewEngine()
	e.Spawn("lone", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
		}
	})
	e.Run()
	if e.Spawned() != 1 || e.Handoffs() != 1 {
		t.Fatalf("lone sleeper: spawned %d, handoffs %d; want 1, 1", e.Spawned(), e.Handoffs())
	}

	e = NewEngine()
	for i := 0; i < 2; i++ {
		d := Duration(10 + i) // the two wake at interleaved instants
		e.Spawn("turn", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.SleepUntil(Time(j+1) * Time(d*2))
			}
		})
	}
	e.Run()
	if e.Spawned() != 2 || e.Handoffs() < 10 {
		t.Fatalf("alternating pair: spawned %d, handoffs %d; want 2, at least 10", e.Spawned(), e.Handoffs())
	}
}

// TestInlineWakeKeepsEventOrder pins the instants and executed-event
// counts around a sleep that may wake in place: the in-place wake must
// count and order exactly like the queued wake event it replaces.
func TestInlineWakeKeepsEventOrder(t *testing.T) {
	type mark struct {
		who  string
		at   Time
		exec uint64
	}
	check := func(name string, got, want []mark) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: marks %v, want %v", name, got, want)
		}
	}

	// An event queued at the sleeper's target instant was scheduled
	// first, so it runs first; one at t+1 runs after the sleeper.
	for _, tc := range []struct {
		name    string
		eventAt Time
		want    []mark
	}{
		{"same instant", 10, []mark{{"event", 10, 2}, {"proc", 10, 3}, {"proc", 20, 4}}},
		{"next instant", 11, []mark{{"proc", 10, 2}, {"event", 11, 3}, {"proc", 20, 4}}},
	} {
		e := NewEngine()
		var got []mark
		e.At(tc.eventAt, func() { got = append(got, mark{"event", e.Now(), e.Executed()}) })
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(10)
			got = append(got, mark{"proc", p.Now(), e.Executed()})
			p.Sleep(10)
			got = append(got, mark{"proc", p.Now(), e.Executed()})
		})
		e.Run()
		check(tc.name, got, tc.want)
		if e.Executed() != 4 || e.Now() != 20 {
			t.Fatalf("%s: executed %d, now %v; want 4, 20", tc.name, e.Executed(), e.Now())
		}
	}

	// A RunUntil bound below the target: the clock stops at the bound and
	// the sleeper resumes on the next Run.
	e := NewEngine()
	var got []mark
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		got = append(got, mark{"proc", p.Now(), e.Executed()})
	})
	e.RunUntil(50)
	if len(got) != 0 || e.Now() != 50 || e.Executed() != 1 {
		t.Fatalf("bound: marks %v, now %v, executed %d; want none, 50, 1", got, e.Now(), e.Executed())
	}
	e.Run()
	check("bound", got, []mark{{"proc", 100, 2}})

	// A Stop issued by the event that resumes the sleeper: its next sleep
	// must not wake in place, so Run returns at the Stop's instant.
	e = NewEngine()
	got = nil
	e.Spawn("sleeper", func(p *Proc) {
		wake := p.WakeFunc()
		e.At(5, func() { e.Stop(); wake() })
		p.Await()
		got = append(got, mark{"proc", p.Now(), e.Executed()})
		p.Sleep(1)
		got = append(got, mark{"proc", p.Now(), e.Executed()})
	})
	e.Run()
	check("stop", got, []mark{{"proc", 5, 2}})
	if e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("stop: now %v, pending %d; want 5, 1", e.Now(), e.Pending())
	}
	e.Run()
	check("stop", got, []mark{{"proc", 5, 2}, {"proc", 6, 3}})
}

// TestProcPanicSurfacesFromRun checks that a panic in a process body is
// re-raised by Run with its original value, and that the process counts
// as finished, so Shutdown afterwards leaves nothing live.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	e.Spawn("parked", func(p *Proc) { sig.Wait(p) })
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(10)
		panic("boom from proc")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom from proc" {
				t.Fatalf("Run panicked with %v, want the process's value", r)
			}
		}()
		e.Run()
	}()
	if e.Now() != 10 || e.Live() != 1 {
		t.Fatalf("now %v, live %d after the panic; want 10, 1", e.Now(), e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", e.Live())
	}
}
