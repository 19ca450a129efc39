package extoll

import (
	"putget/internal/sim"
	"putget/internal/wire"
)

// RelConfig tunes the link-level go-back-N protocol and the requester's
// response watchdog. APEnet+ dedicates FPGA logic to exactly this kind of
// link-level go-back-N; EXTOLL's own link layer is likewise
// retransmitting. When the link runs out of retries it is declared dead
// and outstanding requester ops error out.
type RelConfig struct {
	wire.RelConfig
	// ReqTimeout is the requester watchdog: a get/atomic whose response
	// notification has not arrived by then completes with a timeout-error
	// notification instead.
	ReqTimeout sim.Duration
}

// DefaultRelConfig returns link-protocol tunables in FPGA-NIC territory.
func DefaultRelConfig() *RelConfig {
	return &RelConfig{
		RelConfig: wire.RelConfig{
			AckEvery:    4,
			AckDelay:    3 * sim.Microsecond,
			RetxTimeout: 15 * sim.Microsecond,
			MaxRetries:  7,
		},
		ReqTimeout: 200 * sim.Microsecond,
	}
}

// pendingResp tracks one requester op (get / fetch-add) that owes this
// port a completer notification.
type pendingResp struct {
	port     int
	size     int
	cookie   uint64
	deadline sim.Time
	settled  bool
	timedOut bool
}

// linkRel is a NIC's link-reliability and watchdog state: the link's
// go-back-N sequence space plus what EXTOLL adds to it.
type linkRel struct {
	wire.GoBackN[Packet]
	dead    bool     // retries exhausted: the link transmits nothing any more
	lastReq sim.Time // transmit time of the latest request (see inOrder)

	// Requester response watchdog: pending is the global FIFO (constant
	// timeout, so append order is deadline order); portQ indexes the same
	// entries per port for in-order settling.
	pending    []*pendingResp
	portQ      map[int][]*pendingResp
	respParked bool   // the watchdog waits for a tracked op
	watchdogF  func() // NIC.respWatchdog
}

func newLinkRel(n *NIC) *linkRel {
	r := &linkRel{
		portQ:     map[int][]*pendingResp{},
		watchdogF: n.respWatchdog,
	}
	r.GoBackN = wire.NewGoBackN(n.e, &n.cfg.Rel.RelConfig, &n.stats.RelStats, wire.Owner[Packet]{
		Send:  func(pkt Packet, wb int) { n.tx.Send(pkt, wb) },
		Stamp: func(pkt Packet, seq uint32) Packet { pkt.Seq = seq; return pkt },
		Control: func(nak bool, seq uint32) Packet {
			if nak {
				return Packet{Kind: pktLinkNak, Seq: seq}
			}
			return Packet{Kind: pktLinkAck, Seq: seq}
		},
		CtlBytes:  PktHeader,
		Exhausted: n.linkDead,
		Comp:      n.cfg.Name,
		Label:     n.cfg.Name + " link",
		SeqName:   "seq",

		// The window entry's payload reference; a drained window's
		// buffers are left to the garbage collector.
		Released: func(en wire.Entry[Packet]) { en.Pkt.Buf.Release() },
	})
	return r
}

// xmit sequences and transmits one data packet under the reliability
// protocol, or falls straight through to the wire without it.
func (n *NIC) xmit(pkt Packet, wb int) {
	r := n.rel
	if r == nil {
		n.tx.Send(pkt, wb)
		return
	}
	if r.dead {
		// A dead link transmits nothing; tracked requester ops fall to
		// the watchdog.
		return
	}
	r.Send(pkt, wb, 0)
}

// inOrder returns when a request that is ready at t may be transmitted:
// under reliability, no earlier than the request decoded before it.
// Requests are sequenced at transmit time and a store-and-forward put
// waits for its payload, so without this floor a later WR (the flag
// behind the data) would overtake it. Without reliability the cable
// keeps injection order and t is returned as is.
func (n *NIC) inOrder(t sim.Time) sim.Time {
	if r := n.rel; r != nil {
		t = max(t, r.lastReq)
		r.lastReq = t
	}
	return t
}

// linkDead gives up on the cable: nothing retransmits any more and every
// watchdog-tracked requester op errors out immediately.
func (n *NIC) linkDead() {
	r := n.rel
	r.dead = true
	r.Drain()
	n.stats.LinkDowns++
	if n.e.Traced() {
		n.e.Tracev(n.cfg.Name, "fault", "fault: %s link declared dead after %d retries", n.cfg.Name, n.cfg.Rel.MaxRetries+1)
	}
	for _, pr := range r.pending {
		if pr.settled || pr.timedOut {
			continue
		}
		pr.timedOut = true
		n.stats.ReqTimeouts++
		n.writeTimeoutNotif(pr.port, pr.size, pr.cookie)
	}
	r.pending = nil
	n.kickWatchdog()
}

// linkAdmit runs the link-layer checks on one received packet and reports
// whether it should be dispatched.
func (n *NIC) linkAdmit(pkt Packet) bool {
	r := n.rel
	if pkt.Poisoned {
		n.stats.IcrcDrops++
		return false
	}
	switch pkt.Kind {
	case pktLinkAck:
		r.RecvAck(pkt.Seq)
		return false
	case pktLinkNak:
		r.RecvNak(pkt.Seq)
		return false
	}
	switch r.Admit(pkt.Seq) {
	case wire.Duplicate:
		// Completions and notifications are not idempotent: never
		// re-execute, just re-ack.
		r.Ack()
		return false
	case wire.Gap:
		return false
	}
	// The accepted delivery holds its own payload reference until the
	// completer write lands; the window keeps the sender's until the ACK.
	// Retransmitted copies hold none: one arriving after the ACK is a
	// Duplicate and its bytes are never read.
	pkt.Buf.Hold()
	r.Accept(false)
	return true
}

// ---- requester response watchdog ----

// trackResponse registers one get/atomic op that owes port a completer
// notification.
func (n *NIC) trackResponse(port, size int, cookie uint64) {
	r := n.rel
	pr := &pendingResp{
		port: port, size: size, cookie: cookie,
		deadline: n.e.Now().Add(n.cfg.Rel.ReqTimeout),
	}
	r.pending = append(r.pending, pr)
	r.portQ[port] = append(r.portQ[port], pr)
	n.kickWatchdog()
}

// settleResponse consumes the oldest tracked op for port when its
// response arrives. It returns whether the success notification should be
// written: a response landing after the watchdog already reported a
// timeout is suppressed, so software sees exactly one notification per
// op. Untracked responses (reliability off, or no completion notification
// requested) always pass.
func (n *NIC) settleResponse(port int) bool {
	r := n.rel
	if r == nil {
		return true
	}
	q := r.portQ[port]
	if len(q) == 0 {
		return true
	}
	pr := q[0]
	r.portQ[port] = q[1:]
	pr.settled = true
	return !pr.timedOut
}

// respWatchdog turns overdue tracked ops into timeout-error
// notifications. It is an engine callback: parked while nothing is
// tracked, due again at the oldest op's deadline otherwise.
func (n *NIC) respWatchdog() {
	r := n.rel
	for len(r.pending) > 0 {
		head := r.pending[0]
		if head.settled || head.timedOut {
			r.pending = r.pending[1:]
			continue
		}
		if n.e.Now() < head.deadline {
			n.e.At(head.deadline, r.watchdogF)
			return
		}
		head.timedOut = true
		r.pending = r.pending[1:]
		n.stats.ReqTimeouts++
		n.writeTimeoutNotif(head.port, head.size, head.cookie)
	}
	r.respParked = true
}

// kickWatchdog wakes a parked watchdog at the current instant.
func (n *NIC) kickWatchdog() {
	if r := n.rel; r.respParked {
		r.respParked = false
		n.e.At(n.e.Now(), r.watchdogF)
	}
}
