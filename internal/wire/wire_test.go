package wire

import (
	"testing"

	"putget/internal/sim"
)

// TestLinkWaitFuncDrainsInOrder: a callback receiver woken by WaitFunc
// runs at each delivery instant and drains the packets with TryRecv in
// injection order.
func TestLinkWaitFuncDrainsInOrder(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 450*sim.Nanosecond)
	var got []int
	var times []sim.Time
	var drain func()
	drain = func() {
		for {
			v, ok := l.TryRecv()
			if !ok {
				l.WaitFunc(drain)
				return
			}
			got = append(got, v)
			times = append(times, e.Now())
		}
	}
	var want []sim.Time
	e.At(0, func() {
		drain()
		for v := 1; v <= 3; v++ {
			d, _ := l.Send(v, 1000)
			want = append(want, d)
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("receiver got %v, want [1 2 3]", got)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("packet %d taken at %v, delivered at %v", i+1, times[i], want[i])
		}
	}
	if l.Pending() != 0 {
		t.Fatalf("%d packets left in the inbox", l.Pending())
	}
}

func TestLinkLatencyAndOrder(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 450*sim.Nanosecond)
	var got []int
	var times []sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, l.Recv(p))
			times = append(times, p.Now())
		}
	})
	e.At(0, func() {
		l.Send(1, 1000) // 1us serialize + 450ns
		l.Send(2, 1000)
		l.Send(3, 1000)
	})
	e.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order %v", got)
		}
	}
	want := []sim.Time{1450_000, 2450_000, 3450_000}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery times %v, want %v", times, want)
		}
	}
}

func TestDuplexIndependentDirections(t *testing.T) {
	e := sim.NewEngine()
	ab, ba := NewDuplex[string](e, 1e9, 100*sim.Nanosecond)
	var aGot, bGot string
	var aAt, bAt sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		aGot = ba.Recv(p)
		aAt = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		bGot = ab.Recv(p)
		bAt = p.Now()
	})
	e.At(0, func() {
		ab.Send("toB", 1000)
		ba.Send("toA", 1000)
	})
	e.Run()
	if aGot != "toA" || bGot != "toB" {
		t.Fatalf("payloads %q %q", aGot, bGot)
	}
	// Full duplex: both arrive at the same time, no cross-serialization.
	if aAt != bAt {
		t.Fatalf("duplex serialized: %v vs %v", aAt, bAt)
	}
}

func TestUtilizationAccumulates(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 0)
	e.At(0, func() {
		l.Send(1, 500)
		l.Send(2, 500)
	})
	e.Run()
	if l.Utilization() != sim.Microsecond {
		t.Fatalf("utilization = %v, want 1us", l.Utilization())
	}
}

func TestSendAfterDelaysDelivery(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 100*sim.Nanosecond)
	var at sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		l.Recv(p)
		at = p.Now()
	})
	e.At(0, func() {
		// Serialization would finish at 1us, but the upstream stage is
		// only ready at 5us: delivery = 5us + latency.
		l.SendAfter(1, 1000, sim.Time(5*sim.Microsecond))
	})
	e.Run()
	want := sim.Time(5*sim.Microsecond + 100*1000)
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

// A later packet must not overtake an earlier one whose upstream stage is
// still feeding the cable: a flag sent right after a bulk put whose DMA
// finishes in the future would otherwise land before the data.
func TestSendAfterThenSendKeepsInjectionOrder(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 100*sim.Nanosecond)
	var got []int
	var times []sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, l.Recv(p))
			times = append(times, p.Now())
		}
	})
	e.At(0, func() {
		l.SendAfter(1, 1000, sim.Time(5*sim.Microsecond)) // bulk: DMA ready at 5us
		l.Send(2, 8)                                      // flag: serializes at once
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2] (injection order)", got)
	}
	want := sim.Time(5*sim.Microsecond + 100*sim.Nanosecond)
	if times[0] != want || times[1] != want {
		t.Fatalf("delivery times %v, want both at %v (the flag waits for the bulk)", times, want)
	}
}

func TestSendAfterPastReadyUsesSerialization(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 0)
	var at sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		l.Recv(p)
		at = p.Now()
	})
	e.At(0, func() {
		l.SendAfter(1, 2000, 0) // ready immediately: 2us serialization rules
	})
	e.Run()
	if at != sim.Time(2*sim.Microsecond) {
		t.Fatalf("delivery at %v, want 2us", at)
	}
}

// dropAll drops every packet; dropNone passes everything through.
type verdictFaults struct {
	drop, corrupt bool
	delay         sim.Duration
}

func (v verdictFaults) Judge(at sim.Time, wireBytes int) (bool, bool, sim.Duration) {
	return v.drop, v.corrupt, v.delay
}

func TestFaultLinkDropLosesPacket(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 0)
	l.SetFaults(verdictFaults{drop: true}, nil)
	got := 0
	e.Spawn("rx", func(p *sim.Proc) {
		l.Recv(p)
		got++
	})
	e.At(0, func() { l.Send(1, 100) })
	e.Run()
	if got != 0 {
		t.Fatalf("dropped packet was delivered")
	}
	if l.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", l.Dropped())
	}
}

func TestFaultLinkCorruptAndDelay(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 0)
	l.SetFaults(verdictFaults{corrupt: true, delay: 500 * sim.Nanosecond},
		func(v int) int { return -v })
	var got int
	var at sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		got = l.Recv(p)
		at = p.Now()
	})
	e.At(0, func() { l.Send(7, 1000) }) // serializes in 1us
	e.Run()
	if got != -7 {
		t.Fatalf("corrupter not applied: got %d", got)
	}
	if want := sim.Time(1*sim.Microsecond + 500*sim.Nanosecond); at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

// Tail-dropped packets never entered the egress queue, so they must not
// consume link serialization time: utilization reflects live packets only.
func TestTailDropDoesNotInflateUtilization(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, sim.Millisecond)
	l.SetDepthCap(2)
	e.At(0, func() {
		for i := 0; i < 10; i++ {
			l.Send(i, 1000) // 1us serialization each; 8 of 10 tail-dropped
		}
	})
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			l.Recv(p)
		}
	})
	e.Run()
	if got, want := l.Utilization(), 2*sim.Microsecond; got != want {
		t.Fatalf("Utilization = %v, want %v (tail-drops must not serialize)", got, want)
	}
	if l.Dropped() != 8 {
		t.Fatalf("Dropped = %d, want 8", l.Dropped())
	}
}

// Send's return value must distinguish a drop from a delivery time.
func TestSendReportsDropDistinctly(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 100*sim.Nanosecond)
	l.SetDepthCap(1)
	var okFirst, okSecond bool
	var tFirst sim.Time
	e.At(0, func() {
		tFirst, okFirst = l.Send(1, 1000)
		_, okSecond = l.Send(2, 1000)
	})
	e.Spawn("rx", func(p *sim.Proc) { l.Recv(p) })
	e.Run()
	if !okFirst || tFirst != sim.Time(1*sim.Microsecond+100*sim.Nanosecond) {
		t.Fatalf("first send: ok=%v deliver=%v", okFirst, tFirst)
	}
	if okSecond {
		t.Fatal("tail-dropped send reported ok=true")
	}

	// Injector drops report ok=false too.
	e2 := sim.NewEngine()
	l2 := NewLink[int](e2, 1e9, 0)
	l2.SetFaults(verdictFaults{drop: true}, nil)
	var ok bool
	e2.At(0, func() { _, ok = l2.Send(1, 100) })
	e2.Run()
	if ok {
		t.Fatal("injector-dropped send reported ok=true")
	}
}

// Injector drops model physical in-flight loss: the packet serialized
// onto the wire before it was lost, so its serialization time is spent —
// Utilization counts it and later packets queue behind it. (Contrast
// TestTailDropDoesNotInflateUtilization: tail drops never touch the wire.)
func TestInjectorDropConsumesSerialization(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, 100*sim.Nanosecond)
	l.SetFaults(verdictFaults{drop: true}, nil)
	var at sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		l.Recv(p)
		at = p.Now()
	})
	e.At(0, func() {
		l.Send(1, 1000) // serializes 0..1us, then lost in flight
		l.SetFaults(nil, nil)
		l.Send(2, 1000) // queues behind the lost packet: 1us..2us
	})
	e.Run()
	if got, want := l.Utilization(), 2*sim.Microsecond; got != want {
		t.Fatalf("Utilization = %v, want %v (injector drop must consume link time)", got, want)
	}
	if want := sim.Time(2*sim.Microsecond + 100*sim.Nanosecond); at != want {
		t.Fatalf("survivor delivered at %v, want %v", at, want)
	}
	if l.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", l.Dropped())
	}
}

// spanCap records the observability stream for span-placement assertions.
type spanCap struct {
	opens  map[sim.SpanID]sim.Time
	kinds  map[sim.SpanID]string
	closes map[sim.SpanID]sim.Time
}

func newSpanCap() *spanCap {
	return &spanCap{
		opens:  map[sim.SpanID]sim.Time{},
		kinds:  map[sim.SpanID]string{},
		closes: map[sim.SpanID]sim.Time{},
	}
}

func (s *spanCap) SpanOpen(id sim.SpanID, at sim.Time, comp, kind string, attrs []sim.Attr) {
	s.opens[id] = at
	s.kinds[id] = kind
}
func (s *spanCap) SpanClose(id sim.SpanID, at sim.Time)                     { s.closes[id] = at }
func (s *spanCap) MetricSample(at sim.Time, comp, name string, val float64) {}
func (s *spanCap) Shutdown(at sim.Time)                                     {}

// The xmit span's serialization window must be anchored at the
// pre-fault-delay serialization-complete time: extraDelay postpones only
// the flight, not when the bytes occupied the transmitter. A 500ns fault
// delay on a 1us serialization must keep the span start at 0, not shift
// the whole window right by 500ns.
func TestXmitSpanWindowUnderExtraDelay(t *testing.T) {
	e := sim.NewEngine()
	cap := newSpanCap()
	e.SetObserver(cap)
	l := NewLink[int](e, 1e9, 100*sim.Nanosecond)
	l.SetFaults(verdictFaults{delay: 500 * sim.Nanosecond}, nil)
	e.Spawn("rx", func(p *sim.Proc) { l.Recv(p) })
	e.At(0, func() { l.Send(1, 1000) }) // serializes 0..1us, +500ns fault delay, +100ns flight
	e.Run()
	var found bool
	for id, kind := range cap.kinds {
		if kind != "xmit" {
			continue
		}
		found = true
		if got := cap.opens[id]; got != 0 {
			t.Fatalf("xmit span start = %v, want 0 (serialization began at 0)", got)
		}
		if got, want := cap.closes[id], sim.Time(1600*sim.Nanosecond); got != want {
			t.Fatalf("xmit span close = %v, want %v (delayed delivery)", got, want)
		}
	}
	if !found {
		t.Fatal("no xmit span recorded")
	}
}

func TestFaultDepthCapTailDrop(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink[int](e, 1e9, sim.Millisecond) // long flight: all in-flight at once
	l.SetDepthCap(2)
	got := 0
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			l.Recv(p)
			got++
		}
	})
	e.At(0, func() {
		for i := 0; i < 5; i++ {
			l.Send(i, 10)
		}
	})
	e.Run()
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	if l.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", l.Dropped())
	}
	if l.MaxDepth() != 2 {
		t.Fatalf("MaxDepth() = %d, want 2", l.MaxDepth())
	}
}

// TestLinkSendDoesNotAllocate pins a Link send through to its delivery
// at zero allocations, once warm: the packet travels in a pooled op.
func TestLinkSendDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	defer e.Shutdown()
	l := NewLink[int](e, 10e9, 100*sim.Nanosecond)
	n := 0
	step := func() {
		n++
		l.Send(n, 64)
		e.Run()
		if v, ok := l.TryRecv(); !ok || v != n {
			t.Fatalf("packet %d not delivered (got %d, %v)", n, v, ok)
		}
	}
	step()
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Errorf("%v allocs/op, want 0", got)
	}
}
