// Package wire models the cable between two NICs. A Cable is one
// direction: a FIFO serialization point at the link rate plus a fixed
// propagation/switch latency, with hooks for deterministic fault
// injection and a bounded egress queue. It is the only link model in the
// simulator — the pair testbed's direct cable and every hop of a switched
// topo.Net embed a Cable — so all links share one timing rule and one set
// of xmit spans and depth/inflight_bytes/busy_us metrics.
//
// Timing. A packet reserves its serialization window FIFO behind earlier
// packets and is sent (serialization complete) at
//
//	sent = max(reserve, ready, lastSent)
//
// where reserve is the end of that window, ready is the cut-through
// floor (the upstream stage still feeding the wire — a DMA read —
// finishes at ready, so serialization overlaps it but cannot complete
// before it), and lastSent is the monotone-delivery floor: no packet is
// sent before the packet injected ahead of it on the same cable. Delivery
// order therefore equals injection order on every cable, which is the
// FIFO guarantee flag-after-data protocols are built on; only a fault
// injector's extra delay can reorder packets.
//
// Drop accounting distinguishes two loss points with different physics:
//
//   - Tail drops (SetDepthCap) happen at the egress queue, before the
//     packet ever touches the wire: no serialization time is reserved and
//     Utilization() is unaffected.
//   - Injector drops (SetFaults) model physical in-flight loss — a CRC
//     hit, a marginal lane, a pulled cable. The packet fully serialized
//     onto the wire before it was lost, so its serialization time is
//     spent and counted in Utilization()/busy_us by design; only the
//     delivery is suppressed.
package wire

import "putget/internal/sim"

// Faults decides the fate of packets entering the wire. Implemented by
// faults.Injector; kept as a local interface so wire does not depend on
// the injection package.
type Faults interface {
	// Judge is called once per packet with the serialization-complete time
	// and on-wire size; it may drop the packet, poison its payload, or add
	// extra delivery delay. A drop verdict models loss in flight: the
	// packet has already occupied the link for its serialization window
	// (unlike a tail drop, which never reaches the wire).
	Judge(at sim.Time, wireBytes int) (drop, corrupt bool, extraDelay sim.Duration)
}

// Conduit is the transmit/receive contract NICs program against. It is
// satisfied by *Link and by topo.Net ports. For multi-hop implementations
// the returned deliver time is the time the packet leaves the first
// cable (a lower bound on arrival), exact for a single cable; ok=false
// means the packet was dropped (depth cap, fault injector, or no route)
// and the time is not a delivery time. The receiver drains delivered
// packets in delivery order with TryRecv; once it finds none, WaitFunc
// queues fn to run as an event at the next delivery.
type Conduit[T any] interface {
	Send(pkt T, wireBytes int) (deliver sim.Time, ok bool)
	SendAfter(pkt T, wireBytes int, ready sim.Time) (deliver sim.Time, ok bool)
	TryRecv() (pkt T, ok bool)
	WaitFunc(fn func())
	Name() string
}

// Cable is one direction of a cable. It books serialization time and
// keeps the occupancy accounting; delivering the packet at the returned
// time (and calling Arrive then) is the owner's job, so a Cable carries
// no packet type.
type Cable struct {
	e       *sim.Engine
	name    string
	rate    float64 // bytes per second
	latency sim.Duration

	busyUntil sim.Time     // end of the last serialization reservation
	lastSent  sim.Time     // latest serialization-complete time handed out
	busyTotal sim.Duration // accumulated serialization time

	faults Faults

	// Egress queue accounting: packets scheduled but not yet delivered.
	// depthCap == 0 leaves the queue unbounded.
	depthCap      int
	inFlight      int
	inFlightBytes int
	maxDepth      int
	dropped       uint64
}

// NewCable returns one direction with the given bandwidth (bytes/second)
// and one-way latency. It returns a value so owners embed the cable
// without a separate allocation.
func NewCable(e *sim.Engine, name string, bytesPerSecond float64, latency sim.Duration) Cable {
	if bytesPerSecond <= 0 {
		panic("wire: cable rate must be positive")
	}
	return Cable{e: e, name: name, rate: bytesPerSecond, latency: latency}
}

// SetName labels this direction for structured traces, spans and metric
// series ("a.rma.wire"). Unnamed cables report as "wire".
func (c *Cable) SetName(name string) { c.name = name }

// Name returns the label set by SetName, or "wire".
func (c *Cable) Name() string {
	if c.name == "" {
		return "wire"
	}
	return c.name
}

// SetFaults installs a fault injector on this direction (nil removes it).
// A corrupt verdict is reported by Transmit; the owner poisons the
// packet's payload.
func (c *Cable) SetFaults(f Faults) { c.faults = f }

// SetDepthCap bounds the egress queue to n scheduled-but-undelivered
// packets; packets beyond the cap are tail-dropped and counted. 0 leaves
// the queue unbounded.
func (c *Cable) SetDepthCap(n int) { c.depthCap = n }

// Dropped reports packets lost to the depth cap or the fault injector.
func (c *Cable) Dropped() uint64 { return c.dropped }

// MaxDepth reports the deepest egress queue observed.
func (c *Cable) MaxDepth() int { return c.maxDepth }

// Utilization returns accumulated serialization time.
func (c *Cable) Utilization() sim.Duration { return c.busyTotal }

// FreeAt reports when the transmitter finishes its booked serialization —
// the congestion signal adaptive routing compares.
func (c *Cable) FreeAt() sim.Time { return c.busyUntil }

// Transmit puts one packet of wireBytes on the cable with its upstream
// stage ready at `ready` (pass 0 or the current time when nothing
// upstream is pending) and returns its delivery time. The packet occupies
// the egress queue until the owner calls Arrive at that time. ok=false
// means the packet was dropped — a tail drop (deliver is the current
// time, no link time spent) or an injector drop (deliver is the
// serialization-complete time; the link time was spent). corrupt reports
// an injector verdict to poison the payload.
func (c *Cable) Transmit(wireBytes int, ready sim.Time) (deliver sim.Time, ok, corrupt bool) {
	now := c.e.Now()
	if c.depthCap > 0 && c.inFlight >= c.depthCap {
		// A tail-dropped packet never entered the egress queue, so it must
		// not occupy the link (reserving first would inflate Utilization()
		// and starve live packets behind phantom ones).
		c.dropped++
		if c.e.Traced() {
			c.e.Tracev(c.Name(), "fault", "fault: wire tail-drop (%dB, depth %d)", wireBytes, c.inFlight)
		}
		return now, false, false
	}
	ser := sim.BytesAt(wireBytes, c.rate)
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start.Add(ser)
	c.busyTotal += ser
	sent := c.busyUntil
	if ready > sent {
		sent = ready
	}
	if c.lastSent > sent {
		sent = c.lastSent
	}
	c.lastSent = sent

	// Serialization finished at sent; a fault's extra delay postpones only
	// the flight, so the xmit span's serialization window is anchored at
	// this pre-delay instant.
	serDone := sent
	if c.faults != nil {
		drop, bad, extra := c.faults.Judge(sent, wireBytes)
		if drop {
			c.dropped++
			if c.e.Traced() {
				c.e.Tracev(c.Name(), "fault", "fault: wire drop (%dB at %v)", wireBytes, sent)
			}
			return sent, false, false
		}
		if bad && c.e.Traced() {
			c.e.Tracev(c.Name(), "fault", "fault: wire corrupt (%dB at %v)", wireBytes, sent)
		}
		corrupt = bad
		sent = sent.Add(extra)
	}
	c.inFlight++
	if c.inFlight > c.maxDepth {
		c.maxDepth = c.inFlight
	}
	c.inFlightBytes += wireBytes
	deliver = sent.Add(c.latency)
	if c.e.Observing() {
		// The xmit span covers this packet's own serialization window plus
		// its flight: start when its bytes begin occupying the link (which
		// may be in the future under cut-through or behind queued packets),
		// end at delivery.
		start := serDone.Add(-ser)
		if start < now {
			start = now
		}
		id := c.e.SpanOpenAt(start, c.Name(), "xmit",
			sim.Attr{Key: "bytes", Val: int64(wireBytes)})
		c.e.SpanCloseAt(id, deliver)
		c.e.Metric(c.Name(), "depth", float64(c.inFlight))
		c.e.Metric(c.Name(), "inflight_bytes", float64(c.inFlightBytes))
		c.e.Metric(c.Name(), "busy_us", c.busyTotal.Microseconds())
	}
	return deliver, true, corrupt
}

// Arrive ends one delivered packet's occupancy of the egress queue; call
// it at the delivery time Transmit returned.
func (c *Cable) Arrive(wireBytes int) {
	c.inFlight--
	c.inFlightBytes -= wireBytes
	if c.e.Observing() {
		c.e.Metric(c.Name(), "depth", float64(c.inFlight))
		c.e.Metric(c.Name(), "inflight_bytes", float64(c.inFlightBytes))
	}
}

// Link is a Cable plus the receiver's inbox: a self-contained
// point-to-point direction for unit tests and microbenchmarks. Testbeds
// build their cables inside a topo.Net.
type Link[T any] struct {
	Cable
	inbox     *sim.Chan[T]
	corrupter func(T) T

	free   []*delivery[T]     // idle delivery ops
	arrive func(*delivery[T]) // (*delivery[T]).arrive, built once
}

// delivery is one packet in flight on a Link, from SendAfter to its
// arrival in the inbox. Ops are pooled per link, so a send allocates
// nothing.
type delivery[T any] struct {
	sim.Step[*delivery[T]]
	l         *Link[T]
	pkt       T
	wireBytes int
}

// NewLink creates one direction with the given bandwidth (bytes/second)
// and one-way latency.
func NewLink[T any](e *sim.Engine, bytesPerSecond float64, latency sim.Duration) *Link[T] {
	return &Link[T]{
		Cable: NewCable(e, "", bytesPerSecond, latency),
		inbox: sim.NewChan[T](e),
		// A method expression of a generic type allocates where it is
		// evaluated, so the stage is evaluated here, once per link.
		arrive: (*delivery[T]).arrive,
	}
}

// NewDuplex creates both directions of a cable with symmetric parameters.
func NewDuplex[T any](e *sim.Engine, bytesPerSecond float64, latency sim.Duration) (ab, ba *Link[T]) {
	return NewLink[T](e, bytesPerSecond, latency), NewLink[T](e, bytesPerSecond, latency)
}

// SetFaults installs a fault injector on this direction. corrupter marks a
// packet's payload as damaged (e.g. sets a Poisoned flag the receiver's
// CRC check trips on); nil leaves payloads intact even if the injector
// asks for corruption.
func (l *Link[T]) SetFaults(f Faults, corrupter func(T) T) {
	l.Cable.SetFaults(f)
	l.corrupter = corrupter
}

// Send transmits pkt occupying wireBytes of link time; delivery into the
// receiver inbox happens after serialization plus latency. The sender
// does not block. ok reports whether the packet was scheduled for
// delivery; see Cable.Transmit for the drop cases.
func (l *Link[T]) Send(pkt T, wireBytes int) (deliver sim.Time, ok bool) {
	return l.SendAfter(pkt, wireBytes, 0)
}

// SendAfter transmits pkt like Send with delivery floored by the upstream
// stage's readiness at `ready` plus the link latency — used by
// cut-through senders whose DMA read finishes at `ready` while the wire
// serializes concurrently.
func (l *Link[T]) SendAfter(pkt T, wireBytes int, ready sim.Time) (deliver sim.Time, ok bool) {
	deliver, ok, corrupt := l.Transmit(wireBytes, ready)
	if !ok {
		return deliver, false
	}
	if corrupt && l.corrupter != nil {
		pkt = l.corrupter(pkt)
	}
	d := l.newDelivery()
	d.pkt, d.wireBytes = pkt, wireBytes
	d.At(deliver, l.arrive)
	return deliver, true
}

func (l *Link[T]) newDelivery() *delivery[T] {
	if k := len(l.free); k > 0 {
		d := l.free[k-1]
		l.free = l.free[:k-1]
		return d
	}
	d := &delivery[T]{l: l}
	d.Init(l.e, d)
	return d
}

// arrive ends the packet's flight: it leaves the egress queue, the op is
// recycled and the packet enters the inbox.
//
//putget:hot
func (d *delivery[T]) arrive() {
	l, pkt := d.l, d.pkt
	l.Arrive(d.wireBytes)
	var zero T
	d.pkt = zero
	l.free = append(l.free, d)
	l.inbox.Send(pkt)
}

// Recv blocks p until a packet arrives, FIFO.
func (l *Link[T]) Recv(p *sim.Proc) T { return l.inbox.Recv(p) }

// TryRecv takes the oldest delivered packet without blocking.
func (l *Link[T]) TryRecv() (T, bool) { return l.inbox.TryRecv() }

// WaitFunc runs fn at the next delivery; call it after TryRecv found
// the inbox empty.
func (l *Link[T]) WaitFunc(fn func()) { l.inbox.WaitFunc(fn) }

// Pending reports packets delivered but not yet consumed.
func (l *Link[T]) Pending() int { return l.inbox.Len() }
