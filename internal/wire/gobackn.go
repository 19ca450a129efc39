package wire

import "putget/internal/sim"

// RelConfig tunes one go-back-N sequence space.
type RelConfig struct {
	AckEvery    int          // ack every Nth in-order packet at once
	AckDelay    sim.Duration // longest wait for a coalesced ACK
	RetxTimeout sim.Duration // the sender's retransmission timer
	// MaxRetries bounds retries (timeouts + NAKs) without an ACK in
	// between; one more calls the owner's Exhausted hook.
	MaxRetries int
}

// RelStats counts go-back-N protocol activity. Fabrics embed it in their
// Stats; every sequence space of one NIC counts into the same RelStats.
type RelStats struct {
	Retransmits uint64 // data packets sent again (NAK or timer)
	AcksSent    uint64
	AcksRx      uint64
	NaksSent    uint64 // sequence-gap NAKs
	NaksRx      uint64
	Timeouts    uint64 // retransmission-timer expiries
	DupRx       uint64 // duplicate packets (already-delivered sequence number)
}

// Add accumulates o into s.
func (s *RelStats) Add(o RelStats) {
	s.Retransmits += o.Retransmits
	s.AcksSent += o.AcksSent
	s.AcksRx += o.AcksRx
	s.NaksSent += o.NaksSent
	s.NaksRx += o.NaksRx
	s.Timeouts += o.Timeouts
	s.DupRx += o.DupRx
}

// Owner is what a GoBackN needs from the NIC that owns it: how to send,
// stamp and build packets, where to trace, and the hooks its fabric's
// own behaviour hangs off. Up, Released and Nacked may be nil.
type Owner[P any] struct {
	Send  func(pkt P, wireBytes int)
	Stamp func(pkt P, seq uint32) P // writes seq into a data packet
	// Control builds an ACK (nak=false) or NAK of CtlBytes carrying the
	// receiver's next expected sequence number.
	Control  func(nak bool, seq uint32) P
	CtlBytes int
	// Exhausted runs when a retry would exceed MaxRetries; it must Drain.
	Exhausted func()
	// Up reports whether the sender may still retransmit.
	Up       func() bool
	Released func(Entry[P])   // sees each packet an ACK releases
	Nacked   func(seq uint32) // runs before a NAK-triggered resend
	// Comp is the trace component; Label names the sequence space in
	// retry lines ("a.rma link") and SeqName its numbers ("seq").
	Comp, Label, SeqName string
}

// Entry is one transmitted-but-unacknowledged data packet.
type Entry[P any] struct {
	Pkt   P
	Seq   uint32
	Bytes int // wire size for retransmission
	Tag   int // the owner's word, stored with the packet
}

// Verdict classifies one received data packet.
type Verdict int

const (
	// InOrder is the next expected packet: deliver it and call Accept
	// (or refuse it and leave the sequence where it is).
	InOrder Verdict = iota
	// Duplicate was delivered before (a lost ACK or a go-back-N replay).
	// Deliveries are not idempotent: never redeliver; re-ack with Ack or
	// answer it some other way.
	Duplicate
	// Gap follows a lost packet and is dropped; Admit has NAKed it.
	Gap
)

// GoBackN is one reliable, in-order sequence space — an EXTOLL link or an
// InfiniBand RC queue pair. The sender side stamps sequence numbers,
// keeps the unacked window, retransmits go-back-N on timeout or NAK and
// gives up after a retry budget; the receiver side classifies packets,
// NAKs each gap once, and coalesces cumulative ACKs. It knows nothing of
// the fabric it serves: everything fabric-specific hangs off the Owner
// hooks and the receive verdicts.
type GoBackN[P any] struct {
	e   *sim.Engine
	cfg *RelConfig
	st  *RelStats
	o   Owner[P]

	// Sender side.
	next     uint32
	window   []Entry[P]
	retries  int
	armed    bool
	deadline sim.Time
	parked   bool   // the timer waits for kick
	tickF    func() // tick, built once by Start

	// Receiver side.
	expect     uint32
	nakSent    bool // one NAK per expected sequence number
	ackPending int
	ackGen     int
}

// NewGoBackN returns a sequence space counting into st. It returns a
// value so owners embed it without a separate allocation, then Start it.
func NewGoBackN[P any](e *sim.Engine, cfg *RelConfig, st *RelStats, o Owner[P]) GoBackN[P] {
	return GoBackN[P]{e: e, cfg: cfg, st: st, o: o}
}

// Start runs the retransmission timer from now on. Call it once, on the
// sequence space's final address.
func (g *GoBackN[P]) Start() {
	g.tickF = g.tick
	g.e.At(g.e.Now(), g.tickF)
}

// ---- sender side ----

// Send stamps pkt with the next sequence number, keeps it (with tag) for
// replay and transmits it.
func (g *GoBackN[P]) Send(pkt P, wireBytes, tag int) {
	seq := g.next
	g.next++
	pkt = g.o.Stamp(pkt, seq)
	g.window = append(g.window, Entry[P]{Pkt: pkt, Seq: seq, Bytes: wireBytes, Tag: tag})
	if !g.armed {
		g.arm()
	}
	g.o.Send(pkt, wireBytes)
}

// Window returns the unacked packets, oldest first.
func (g *GoBackN[P]) Window() []Entry[P] { return g.window }

// Shift removes the oldest unacked packet without acking it.
func (g *GoBackN[P]) Shift() (en Entry[P], ok bool) {
	if ok = len(g.window) > 0; ok {
		en, g.window = g.window[0], g.window[1:]
	}
	return en, ok
}

// Drain forgets every unacked packet and disarms the timer.
func (g *GoBackN[P]) Drain() {
	g.window = nil
	g.armed = false
	g.kick()
}

// arm (re)starts the timer for the oldest unacked packet, or disarms it
// when nothing is outstanding.
func (g *GoBackN[P]) arm() {
	if len(g.window) == 0 {
		g.armed = false
		return
	}
	g.armed = true
	g.deadline = g.e.Now().Add(g.cfg.RetxTimeout)
	g.kick()
}

// Postpone holds the timer for d beyond one RetxTimeout from now.
func (g *GoBackN[P]) Postpone(d sim.Duration) {
	g.deadline = g.e.Now().Add(d + g.cfg.RetxTimeout)
	g.kick()
}

// tick is the retransmission timer, an engine callback: parked while
// nothing is outstanding, due again at the deadline otherwise (which may
// have moved by then).
func (g *GoBackN[P]) tick() {
	for g.armed {
		if g.e.Now() < g.deadline {
			g.e.At(g.deadline, g.tickF)
			return
		}
		g.timeout()
	}
	g.parked = true
}

// kick wakes a parked timer at the current instant.
func (g *GoBackN[P]) kick() {
	if g.parked {
		g.parked = false
		g.e.At(g.e.Now(), g.tickF)
	}
}

func (g *GoBackN[P]) up() bool { return g.o.Up == nil || g.o.Up() }

func (g *GoBackN[P]) timeout() {
	if !g.up() || len(g.window) == 0 {
		g.armed = false
		return
	}
	g.st.Timeouts++
	g.retries++
	if g.e.Traced() {
		g.e.Tracev(g.o.Comp, "retry", "retry: %s timeout #%d, resend from %s %d", g.o.Label, g.retries, g.o.SeqName, g.window[0].Seq)
	}
	if g.retries > g.cfg.MaxRetries {
		g.o.Exhausted()
		return
	}
	g.Resend(g.window[0].Seq)
}

// Resend retransmits every unacked packet from seq on (go-back-N) and
// restarts the timer. The window must not be empty.
func (g *GoBackN[P]) Resend(seq uint32) {
	for _, en := range g.window {
		if en.Seq < seq {
			continue
		}
		g.st.Retransmits++
		g.o.Send(en.Pkt, en.Bytes)
	}
	g.arm()
}

// Release acks every unacked packet below seq; progress resets the retry
// budget and re-arms the timer.
func (g *GoBackN[P]) Release(seq uint32) {
	n := 0
	for _, en := range g.window {
		if en.Seq >= seq {
			break
		}
		n++
		if g.o.Released != nil {
			g.o.Released(en)
		}
	}
	if n == 0 {
		return
	}
	g.window = g.window[n:]
	g.retries = 0
	g.arm()
}

// RecvAck handles a cumulative ACK for everything below seq.
func (g *GoBackN[P]) RecvAck(seq uint32) {
	g.st.AcksRx++
	g.Release(seq)
}

// RecvNak handles a NAK for seq: it acknowledges everything before seq,
// then resends from there at the cost of one retry.
func (g *GoBackN[P]) RecvNak(seq uint32) {
	g.st.NaksRx++
	g.Release(seq)
	if !g.up() || len(g.window) == 0 {
		return
	}
	g.retries++
	if g.retries > g.cfg.MaxRetries {
		g.o.Exhausted()
		return
	}
	if g.o.Nacked != nil {
		g.o.Nacked(seq)
	}
	g.Resend(seq)
}

// ---- receiver side ----

// Admit classifies one received data packet by its sequence number. A
// gap is NAKed here, once per expected sequence number, so a burst of
// in-flight packets behind one loss triggers a single resend.
func (g *GoBackN[P]) Admit(seq uint32) Verdict {
	switch {
	case seq == g.expect:
		return InOrder
	case seq < g.expect:
		g.st.DupRx++
		return Duplicate
	}
	if !g.nakSent {
		g.nakSent = true
		g.st.NaksSent++
		if g.e.Traced() {
			g.e.Tracev(g.o.Comp, "retry", "retry: %s gap (got %s %d, want %d), NAK", g.o.Label, g.o.SeqName, seq, g.expect)
		}
		g.o.Send(g.o.Control(true, g.expect), g.o.CtlBytes)
	}
	return Gap
}

// Accept consumes the in-order packet Admit just passed. respond means
// the owner's response to it doubles as the cumulative ACK, so a pending
// coalesced ACK is cancelled; otherwise every AckEvery-th packet is acked
// at once and a straggler after at most AckDelay.
func (g *GoBackN[P]) Accept(respond bool) {
	g.expect++
	g.nakSent = false
	if respond {
		g.ackPending = 0
		g.ackGen++
		return
	}
	g.ackPending++
	if g.ackPending >= g.cfg.AckEvery {
		g.Ack()
		return
	}
	gen := g.ackGen
	g.e.After(g.cfg.AckDelay, func() {
		if g.ackGen == gen && g.ackPending > 0 {
			g.Ack()
		}
	})
}

// Ack sends a cumulative ACK for everything below the expected sequence
// number now.
func (g *GoBackN[P]) Ack() {
	g.ackPending = 0
	g.ackGen++
	g.st.AcksSent++
	g.o.Send(g.o.Control(false, g.expect), g.o.CtlBytes)
}
