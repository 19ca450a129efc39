package sim

import (
	"testing"
	"testing/quick"
)

func TestSignalBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(100)
		s.Broadcast()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestSignalPulseWakesOneFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			order = append(order, i)
		})
	}
	e.Spawn("pulser", func(p *Proc) {
		p.Sleep(10)
		for i := 0; i < 3; i++ {
			if !s.Pulse() {
				t.Error("Pulse found no waiter")
			}
			p.Sleep(10)
		}
		if s.Pulse() {
			t.Error("Pulse on empty signal returned true")
		}
	})
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

func TestCompletion(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e)
	var observed Time
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		observed = p.Now()
	})
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(777)
		c.Complete()
	})
	e.Run()
	if !c.Done() || c.At() != 777 || observed != 777 {
		t.Fatalf("completion at %v observed %v, want 777", c.At(), observed)
	}
	// Waiting after completion returns immediately.
	late := false
	e.Spawn("late", func(p *Proc) {
		c.Wait(p)
		late = true
	})
	e.Run()
	if !late {
		t.Fatal("late waiter did not pass completed Completion")
	}
}

func TestCompletionDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	c := NewCompletion(e)
	e.At(0, func() {
		c.Complete()
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double Complete")
			}
		}()
		c.Complete()
	})
	e.Run()
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var holds [][2]Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(100)
			r.Release()
			holds = append(holds, [2]Time{start, p.Now()})
		})
	}
	e.Run()
	if len(holds) != 4 {
		t.Fatalf("holds = %d, want 4", len(holds))
	}
	for i := 1; i < len(holds); i++ {
		if holds[i][0] < holds[i-1][1] {
			t.Fatalf("overlapping holds: %v", holds)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", r.InUse())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(100)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// Two at a time: finishes at 100,100,200,200.
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	e.At(0, func() {
		if !r.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire succeeded on full resource")
		}
		r.Release()
		if !r.TryAcquire() {
			t.Error("TryAcquire after release failed")
		}
		r.Release()
	})
	e.Run()
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic releasing idle resource")
		}
	}()
	r.Release()
}

func TestServerSerializes(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1e9) // 1 GB/s: 1000 bytes = 1us
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("xfer", func(p *Proc) {
			p.SleepUntil(s.Reserve(1000))
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(Microsecond), Time(2 * Microsecond), Time(3 * Microsecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if s.BusyTotal() != 3*Microsecond {
		t.Fatalf("BusyTotal = %v, want 3us", s.BusyTotal())
	}
}

func TestServerReservePosted(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1e9)
	e.At(0, func() {
		if got := s.Reserve(500); got != Time(500*Nanosecond) {
			t.Errorf("first Reserve = %v, want 500ns", got)
		}
		if got := s.Reserve(500); got != Time(Microsecond) {
			t.Errorf("second Reserve = %v, want 1us", got)
		}
	})
	e.At(Time(5*Microsecond), func() {
		// Server went idle; reservation starts now.
		if got := s.Reserve(1000); got != Time(6*Microsecond) {
			t.Errorf("idle Reserve = %v, want 6us", got)
		}
	})
	e.Run()
}

// Property: a FIFO server's total busy time equals the sum of transfer
// durations, and completion times are nondecreasing in request order.
func TestServerFIFOProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := NewEngine()
		s := NewServer(e, 1e6)
		var finishes []Time
		var total Duration
		for _, sz := range sizes {
			n := int(sz) + 1
			total += BytesAt(n, 1e6)
			e.At(0, func() { finishes = append(finishes, s.Reserve(n)) })
		}
		e.Run()
		for i := 1; i < len(finishes); i++ {
			if finishes[i] < finishes[i-1] {
				return false
			}
		}
		return s.BusyTotal() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChanFIFO(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, c.Recv(p))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			c.Send(i)
		}
	})
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("recv order %v, want FIFO", got)
		}
	}
}

func TestChanTryRecv(t *testing.T) {
	e := NewEngine()
	c := NewChan[string](e)
	e.At(0, func() {
		if _, ok := c.TryRecv(); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		c.Send("x")
		if v, ok := c.TryRecv(); !ok || v != "x" {
			t.Errorf("TryRecv = %q,%v want x,true", v, ok)
		}
		if c.Len() != 0 {
			t.Errorf("Len = %d, want 0", c.Len())
		}
	})
	e.Run()
}

func TestChanBuffersWhenNoReceiver(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e)
	e.At(0, func() {
		for i := 0; i < 100; i++ {
			c.Send(i)
		}
	})
	var sum int
	e.SpawnAt(10, "recv", func(p *Proc) {
		for i := 0; i < 100; i++ {
			sum += c.Recv(p)
		}
	})
	e.Run()
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestWaitUntilSignalBeforeDeadline(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var ok bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		ok = s.WaitUntil(p, 100)
		at = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(50)
		s.Broadcast()
	})
	e.Run()
	if !ok || at != 50 {
		t.Fatalf("WaitUntil = %v at %v, want true at 50", ok, at)
	}
	// The satisfied wait must leave no dead deadline event behind.
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after signalled WaitUntil, want 0", e.Pending())
	}
}

func TestWaitUntilTimeout(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var ok bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		ok = s.WaitUntil(p, 100)
		at = p.Now()
	})
	e.Run()
	if ok || at != 100 {
		t.Fatalf("WaitUntil = %v at %v, want false at 100", ok, at)
	}
	if s.Waiting() != 0 {
		t.Fatalf("Waiting = %d after timeout, want 0", s.Waiting())
	}
}

func TestWaitUntilDeadlineNotInFuture(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	results := make(map[Time]bool)
	e.Spawn("w", func(p *Proc) {
		p.Sleep(50)
		results[p.Now()] = s.WaitUntil(p, 50) // deadline == now
		results[100] = s.WaitUntil(p, 20)     // deadline in the past
	})
	e.Run()
	if results[50] || results[100] {
		t.Fatalf("results = %v, want immediate false for non-future deadlines", results)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0: no timer may be armed", e.Pending())
	}
}

func TestWaitUntilSameInstantBroadcastFirstWins(t *testing.T) {
	// The broadcast is armed before the waiter's deadline timer, so at the
	// shared instant the broadcast dispatches first: the wait is satisfied.
	e := NewEngine()
	s := NewSignal(e)
	var ok bool
	e.At(100, func() { s.Broadcast() })
	e.Spawn("w", func(p *Proc) {
		ok = s.WaitUntil(p, 100)
	})
	e.Run()
	if !ok {
		t.Fatal("broadcast armed before the deadline lost the same-instant race")
	}
}

func TestWaitUntilSameInstantDeadlineFirstWins(t *testing.T) {
	// Here the deadline timer is armed before the broadcast event, so at
	// the shared instant the wait times out first.
	e := NewEngine()
	s := NewSignal(e)
	var ok bool
	e.Spawn("w", func(p *Proc) {
		ok = s.WaitUntil(p, 100)
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(100)
		s.Broadcast()
	})
	e.Run()
	if ok {
		t.Fatal("deadline armed before the broadcast lost the same-instant race")
	}
}

func TestWaitUntilRewaitAfterTimeout(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var verdicts []bool
	e.Spawn("w", func(p *Proc) {
		verdicts = append(verdicts, s.WaitUntil(p, 100)) // times out
		verdicts = append(verdicts, s.WaitUntil(p, 300)) // signalled at 200
		verdicts = append(verdicts, s.WaitUntil(p, 400)) // times out again
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(200)
		s.Broadcast()
	})
	e.Run()
	want := []bool{false, true, false}
	if len(verdicts) != len(want) {
		t.Fatalf("verdicts = %v, want %v", verdicts, want)
	}
	for i := range want {
		if verdicts[i] != want[i] {
			t.Fatalf("verdicts = %v, want %v", verdicts, want)
		}
	}
	if e.Now() != 400 || e.Pending() != 0 {
		t.Fatalf("Now = %v Pending = %d, want 400, 0", e.Now(), e.Pending())
	}
}

func TestPulseCancelsTimedWaiterDeadline(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var ok bool
	e.Spawn("w", func(p *Proc) {
		ok = s.WaitUntil(p, 1000)
	})
	e.Spawn("pulser", func(p *Proc) {
		p.Sleep(10)
		s.Pulse()
	})
	e.Run()
	if !ok {
		t.Fatal("pulsed timed waiter reported timeout")
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v: the dead deadline event still ran the clock forward", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestChanRingReusesCapacity(t *testing.T) {
	// Steady-state churn through a mailbox must not grow its backing ring:
	// the former front-slicing implementation retained every consumed slot.
	e := NewEngine()
	c := NewChan[int](e)
	e.At(0, func() {
		for i := 0; i < 4; i++ {
			c.Send(i)
		}
	})
	e.Spawn("churn", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			v := c.Recv(p)
			c.Send(v + 4)
		}
	})
	e.Run()
	if got := len(c.buf); got != 8 {
		t.Fatalf("ring grew to %d slots under steady occupancy 4, want 8", got)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

func TestChanRingWrapKeepsFIFO(t *testing.T) {
	// Force the head to wrap the ring repeatedly and across a growth.
	e := NewEngine()
	c := NewChan[int](e)
	next := 0
	var got []int
	e.At(0, func() {
		for i := 0; i < 6; i++ {
			c.Send(next)
			next++
		}
	})
	e.Spawn("recv", func(p *Proc) {
		for len(got) < 60 {
			got = append(got, c.Recv(p))
			// Interleave sends so head/tail chase each other around the
			// ring, periodically overflowing it to trigger an unwrap.
			for i := 0; i < 2 && next < 60; i++ {
				c.Send(next)
				next++
			}
		}
	})
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO broken across wrap/growth: got[%d] = %d", i, got[i])
		}
	}
}
