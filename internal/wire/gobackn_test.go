package wire

import (
	"slices"
	"testing"

	"putget/internal/sim"
)

// gbnPkt is a test packet: data carries val, ACK/NAK carry seq only.
type gbnPkt struct {
	kind int // gbnData, gbnAck or gbnNak
	seq  uint32
	val  int
	bad  bool // damaged in flight: the receiver's CRC check drops it
}

const (
	gbnData = iota
	gbnAck
	gbnNak
)

// gbnPeer is one end of a test link: a GoBackN whose Send hook records
// every packet and hands it to deliver (nil: the test moves packets).
type gbnPeer struct {
	GoBackN[gbnPkt]
	st        RelStats
	sent      []gbnPkt
	got       []int
	released  []uint32
	exhausted int
	deliver   func(gbnPkt)
}

func newGBNPeer(e *sim.Engine, cfg RelConfig) *gbnPeer {
	p := &gbnPeer{}
	p.GoBackN = NewGoBackN(e, &cfg, &p.st, Owner[gbnPkt]{
		Send: func(pkt gbnPkt, _ int) {
			p.sent = append(p.sent, pkt)
			if p.deliver != nil {
				p.deliver(pkt)
			}
		},
		Stamp: func(pkt gbnPkt, seq uint32) gbnPkt { pkt.seq = seq; return pkt },
		Control: func(nak bool, seq uint32) gbnPkt {
			if nak {
				return gbnPkt{kind: gbnNak, seq: seq}
			}
			return gbnPkt{kind: gbnAck, seq: seq}
		},
		CtlBytes:  16,
		Exhausted: func() { p.exhausted++; p.Drain() },
		Released:  func(en Entry[gbnPkt]) { p.released = append(p.released, en.Seq) },
		Comp:      "t", Label: "t link", SeqName: "seq",
	})
	return p
}

// recv is the owner's receive path: control packets go to the sender
// side, data through Admit; duplicates are re-acked, never redelivered.
func (p *gbnPeer) recv(pkt gbnPkt) {
	switch {
	case pkt.bad:
	case pkt.kind == gbnAck:
		p.RecvAck(pkt.seq)
	case pkt.kind == gbnNak:
		p.RecvNak(pkt.seq)
	default:
		switch p.Admit(pkt.seq) {
		case InOrder:
			p.got = append(p.got, pkt.val)
			p.Accept(false)
		case Duplicate:
			p.Ack()
		}
	}
}

// data builds data packets with sequence numbers seqs (val = seq).
func data(seqs ...uint32) []gbnPkt {
	var out []gbnPkt
	for _, s := range seqs {
		out = append(out, gbnPkt{kind: gbnData, seq: s, val: int(s)})
	}
	return out
}

var testRel = RelConfig{AckEvery: 4, AckDelay: 3 * sim.Microsecond, RetxTimeout: 15 * sim.Microsecond, MaxRetries: 3}

func TestGoBackNGapNaksOncePerExpectedSeq(t *testing.T) {
	e := sim.NewEngine()
	rx := newGBNPeer(e, testRel)
	// Seq 0 is lost: 1, 2, 3 are gaps behind it and draw one NAK.
	for _, pkt := range data(1, 2, 3) {
		rx.recv(pkt)
	}
	// The resend of 0 lands; 1 is lost this time, so 2 and 3 are a new
	// gap behind a new expected seq and draw one more NAK.
	for _, pkt := range data(0, 2, 3) {
		rx.recv(pkt)
	}
	var naks []uint32
	for _, pkt := range rx.sent {
		if pkt.kind == gbnNak {
			naks = append(naks, pkt.seq)
		}
	}
	if !slices.Equal(naks, []uint32{0, 1}) || rx.st.NaksSent != 2 {
		t.Fatalf("NAKs %v (NaksSent %d), want one for seq 0 and one for seq 1", naks, rx.st.NaksSent)
	}
	if !slices.Equal(rx.got, []int{0}) {
		t.Fatalf("delivered %v, want only seq 0", rx.got)
	}
}

func TestGoBackNDuplicateIsReackedNotRedelivered(t *testing.T) {
	e := sim.NewEngine()
	rx := newGBNPeer(e, testRel)
	for _, pkt := range data(0, 1, 0, 1) {
		rx.recv(pkt)
	}
	if !slices.Equal(rx.got, []int{0, 1}) || rx.st.DupRx != 2 {
		t.Fatalf("delivered %v with DupRx %d, want [0 1] and 2 duplicates", rx.got, rx.st.DupRx)
	}
	want := []gbnPkt{{kind: gbnAck, seq: 2}, {kind: gbnAck, seq: 2}}
	if !slices.Equal(rx.sent, want) || rx.st.AcksSent != 2 {
		t.Fatalf("sent %v, want a cumulative re-ACK per duplicate", rx.sent)
	}
}

func TestGoBackNCumulativeAckReleasesWindowAndResetsBudget(t *testing.T) {
	e := sim.NewEngine()
	tx := newGBNPeer(e, testRel)
	tx.Start()
	e.At(0, func() {
		for v := 0; v < 3; v++ {
			tx.Send(gbnPkt{val: v}, 100, v)
		}
	})
	// Two timeouts spend two retries; the ACK for 0 and 1 at 40 us must
	// restore the whole budget.
	e.At(sim.Time(0).Add(40*sim.Microsecond), func() { tx.RecvAck(2) })
	e.RunUntil(sim.Time(0).Add(41 * sim.Microsecond))
	if tx.st.Timeouts != 2 || !slices.Equal(tx.released, []uint32{0, 1}) {
		t.Fatalf("timeouts %d, released %v; want 2 timeouts then seqs 0 and 1 released", tx.st.Timeouts, tx.released)
	}
	if w := tx.Window(); len(w) != 1 || w[0].Seq != 2 || w[0].Tag != 2 {
		t.Fatalf("window %v, want only seq 2", w)
	}
	// With the budget reset, exhaustion needs MaxRetries+1 more expiries
	// of the re-armed timer: at 40+15k us for k = 1..4.
	e.Run()
	if tx.exhausted != 1 || tx.st.Timeouts != 2+4 {
		t.Fatalf("exhausted %d after %d timeouts, want once after 6", tx.exhausted, tx.st.Timeouts)
	}
	if want := sim.Time(0).Add(100 * sim.Microsecond); e.Now() != want {
		t.Fatalf("exhausted at %v, want %v", e.Now(), want)
	}
	e.Shutdown()
}

func TestGoBackNExhaustedOnceAfterMaxRetriesPlusOne(t *testing.T) {
	for _, nakFirst := range []bool{false, true} {
		e := sim.NewEngine()
		tx := newGBNPeer(e, testRel)
		tx.Start()
		e.At(0, func() {
			tx.Send(gbnPkt{val: 7}, 100, 0)
			if nakFirst {
				tx.RecvNak(0) // a NAK counts against the same budget
			}
		})
		e.Run()
		fails := tx.st.Timeouts + tx.st.NaksRx
		if tx.exhausted != 1 || fails != uint64(testRel.MaxRetries+1) {
			t.Fatalf("nakFirst=%v: exhausted %d times after %d failures, want once after %d",
				nakFirst, tx.exhausted, fails, testRel.MaxRetries+1)
		}
		// Every failure but the last resends the packet.
		if tx.st.Retransmits != uint64(testRel.MaxRetries) || len(tx.Window()) != 0 {
			t.Fatalf("nakFirst=%v: %d retransmits, window %v", nakFirst, tx.st.Retransmits, tx.Window())
		}
		e.Shutdown()
	}
}

func TestGoBackNAckCoalescing(t *testing.T) {
	e := sim.NewEngine()
	rx := newGBNPeer(e, testRel)
	var acks []sim.Time
	rx.deliver = func(pkt gbnPkt) {
		if pkt.kind == gbnAck {
			acks = append(acks, e.Now())
		}
	}
	us := func(n int) sim.Time { return sim.Time(0).Add(sim.Duration(n) * sim.Microsecond) }
	// Every AckEvery-th packet acks at once: the 4th at 2 us. Packet 4
	// then waits AckDelay for its own ACK at 5 us; the straggler timer
	// armed for packet 0 fires at 3 us into a newer ACK generation and
	// must not ack early.
	e.At(us(0), func() { rx.recv(data(0)[0]) })
	e.At(us(2), func() {
		for _, pkt := range data(1, 2, 3, 4) {
			rx.recv(pkt)
		}
	})
	// A lone straggler at 10 us is acked AckDelay later; a packet at
	// 11 us restarts nothing, the 10 us timer acks both.
	e.At(us(10), func() { rx.recv(data(5)[0]) })
	e.At(us(11), func() { rx.recv(data(6)[0]) })
	e.Run()
	if want := []sim.Time{us(2), us(5), us(13)}; !slices.Equal(acks, want) {
		t.Fatalf("ACKs at %v, want %v", acks, want)
	}
	if last := rx.sent[len(rx.sent)-1]; last.seq != 7 {
		t.Fatalf("last ACK covers seq < %d, want 7", last.seq)
	}
}

// FuzzGoBackN runs a sender and a receiver over a link whose fate bytes
// drop, corrupt or delay (and so reorder) packets in both directions, and
// checks exactly-once, in-order delivery of every message.
func FuzzGoBackN(f *testing.F) {
	f.Add(uint8(12), []byte{})
	f.Add(uint8(30), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(40), []byte{5, 5, 0, 0, 7, 1, 14, 3, 10, 0, 0, 0, 21, 2, 5, 35})
	f.Add(uint8(25), []byte{1, 0, 1, 0, 3, 0, 0, 5, 11, 13, 0, 0, 0, 0, 0, 0, 2, 4})
	f.Fuzz(func(t *testing.T, n uint8, fate []byte) {
		msgs := int(n%64) + 1
		e := sim.NewEngine()
		cfg := testRel
		cfg.MaxRetries = 1 << 20 // losses are finite: never give up
		tx, rx := newGBNPeer(e, cfg), newGBNPeer(e, cfg)
		link := func(to *gbnPeer) func(gbnPkt) {
			return func(pkt gbnPkt) {
				delay := 2 * sim.Microsecond
				if len(fate) > 0 {
					b := fate[0]
					fate = fate[1:]
					switch {
					case b%5 == 0:
						return // lost in flight
					case b%7 == 0:
						pkt.bad = true
					case b%3 == 0:
						delay += sim.Duration(b) * 100 * sim.Nanosecond
					}
				}
				e.After(delay, func() { to.recv(pkt) })
			}
		}
		tx.deliver, rx.deliver = link(rx), link(tx)
		tx.Start()
		e.At(0, func() {
			for v := 0; v < msgs; v++ {
				tx.Send(gbnPkt{val: v}, 100, 0)
			}
		})
		e.Run()
		want := make([]int, msgs)
		for i := range want {
			want[i] = i
		}
		if !slices.Equal(rx.got, want) {
			t.Fatalf("delivered %v, want 0..%d exactly once in order", rx.got, msgs-1)
		}
		if len(tx.Window()) != 0 || tx.exhausted != 0 {
			t.Fatalf("sender window %d, exhausted %d after delivery", len(tx.Window()), tx.exhausted)
		}
		e.Shutdown()
	})
}
