package ibsim

import (
	"fmt"

	"putget/internal/sim"
	"putget/internal/wire"
)

// RelConfig tunes the RC reliability protocol. All QPs of an HCA share
// these settings (real HCAs configure them per QP at RTR/RTS; one knob set
// is enough for the testbed). RetxTimeout is the Local ACK Timeout in
// Verbs terms; past MaxRetries (the Verbs retry_cnt) the QP moves to ERR
// with WcRetryExcErr.
type RelConfig struct {
	wire.RelConfig
	// RnrRetry bounds receiver-not-ready retries before WcRnrRetryExcErr.
	RnrRetry int
	// RnrBackoff is the first RNR retry delay; it doubles per consecutive
	// RNR NAK.
	RnrBackoff sim.Duration
}

// DefaultRelConfig returns protocol tunables in real-HCA territory.
func DefaultRelConfig() *RelConfig {
	return &RelConfig{
		RelConfig: wire.RelConfig{
			AckEvery:    4,
			AckDelay:    3 * sim.Microsecond,
			RetxTimeout: 20 * sim.Microsecond,
			MaxRetries:  7,
		},
		RnrRetry:   7,
		RnrBackoff: 5 * sim.Microsecond,
	}
}

// qpRel is the per-QP reliability state: the QP's go-back-N sequence
// space (PSNs) plus what RC adds to it. The model maps one WQE to one
// packet (MTU segmentation is folded into wire time), so an unacked
// entry is the WQE's request packet, tagged with the WQE length for its
// CQE.
type qpRel struct {
	wire.GoBackN[Packet]
	rnrCount int // consecutive RNR NAKs; any ACKed progress resets it

	// Atomic duplicate-replay cache: atomics are not idempotent, so a
	// replayed request re-sends the cached response instead of re-executing
	// the add. Verbs allows one outstanding atomic per QP, so the cache is
	// one-deep; it keeps the response's wire size for the replay.
	atomicRespValid bool
	atomicRespPSN   uint32
	atomicResp      Packet
	atomicRespBytes int
}

func newQPRel(h *HCA, qp *QP) *qpRel {
	r := &qpRel{}
	r.GoBackN = wire.NewGoBackN(h.e, &h.cfg.Rel.RelConfig, &h.stats.RelStats, wire.Owner[Packet]{
		Send:  func(pkt Packet, wb int) { h.tx.Send(pkt, wb) },
		Stamp: func(pkt Packet, psn uint32) Packet { pkt.PSN = psn; return pkt },
		Control: func(nak bool, psn uint32) Packet {
			op := opAck
			if nak {
				op = opNak
			}
			return Packet{Opcode: op, SrcQPN: qp.QPN, DstQPN: qp.remoteQPN, PSN: psn}
		},
		CtlBytes:  PktHeader,
		Exhausted: func() { h.fatalQP(qp, StatusRetryExc) },
		Up:        func() bool { return qp.state == StateRTS },
		Released: func(en wire.Entry[Packet]) {
			// The window entry's payload reference goes; a drained or
			// flushed window's buffers are left to the garbage collector.
			en.Pkt.Buf.Release()
			// Signaled writes and sends complete into the send CQ; reads
			// and atomics complete when their response data lands.
			r.rnrCount = 0
			if op := en.Pkt.Opcode; op != OpRDMARead && op != OpAtomicFAdd && en.Pkt.Flags&FlagSignaled != 0 {
				qp.SendCQ.push(CQE{
					Opcode: op, WRID: en.Pkt.WRID, ByteLen: en.Tag,
					QPN: qp.QPN, Status: StatusOK,
				})
			}
		},
		Nacked: func(psn uint32) {
			if h.e.Traced() {
				h.e.Tracev(h.cfg.Name, "retry", "retry: %s qp%d NAK, resend from psn %d", h.cfg.Name, qp.QPN, psn)
			}
		},
		Comp:    h.cfg.Name,
		Label:   fmt.Sprintf("%s qp%d", h.cfg.Name, qp.QPN),
		SeqName: "psn",
	})
	return r
}

// cacheAtomic keeps an atomic's response (or refusal) for replay to a
// duplicate of its request, with the wire size it was sent at.
func (r *qpRel) cacheAtomic(resp Packet, wireBytes int) {
	r.atomicRespValid, r.atomicRespPSN, r.atomicResp = true, resp.PSN, resp
	r.atomicRespBytes = wireBytes
}

// ---- requester side ----

func (h *HCA) handleRnrNak(qp *QP, pkt Packet) {
	h.stats.RnrNaksRx++
	r := qp.rel
	r.Release(pkt.PSN)
	if qp.state != StateRTS || len(r.Window()) == 0 {
		return
	}
	r.rnrCount++
	if r.rnrCount > h.cfg.Rel.RnrRetry {
		h.fatalQP(qp, StatusRnrExc)
		return
	}
	backoff := h.cfg.Rel.RnrBackoff << (r.rnrCount - 1)
	if h.e.Traced() {
		h.e.Tracev(h.cfg.Name, "retry", "retry: %s qp%d RNR NAK #%d, backoff %v", h.cfg.Name, qp.QPN, r.rnrCount, backoff)
	}
	// Hold the timer past the backoff window, then resend.
	r.Postpone(backoff)
	psn := pkt.PSN
	h.e.After(backoff, func() {
		if qp.state == StateRTS && len(r.Window()) > 0 {
			r.Resend(psn)
		}
	})
}

// fatalQP gives up on the oldest unacked request when a retry budget is
// exhausted.
func (h *HCA) fatalQP(qp *QP, status int) {
	h.stats.RetryExhausted++
	if h.e.Traced() {
		h.e.Tracev(h.cfg.Name, "retry", "retry: %s qp%d retries exhausted (status %d) -> ERR", h.cfg.Name, qp.QPN, status)
	}
	h.failQP(qp, status)
}

// failQP completes the oldest unacked request with status, moves the QP
// to ERR and flushes everything else.
func (h *HCA) failQP(qp *QP, status int) {
	if en, ok := qp.rel.Shift(); ok {
		qp.SendCQ.push(CQE{
			Opcode: en.Pkt.Opcode, WRID: en.Pkt.WRID, ByteLen: en.Tag,
			QPN: qp.QPN, Status: status,
		})
	}
	qp.state = StateErr
	qp.flush()
}

// ---- responder side ----

// responderAdmit enforces PSN sequencing and receiver-readiness for an
// inbound request packet. It returns true when the packet should be
// executed; duplicates are re-acknowledged (and reads re-served), gaps are
// NAKed, and not-ready receives are RNR-NAKed.
func (h *HCA) responderAdmit(qp *QP, pkt Packet) bool {
	r := qp.rel
	switch r.Admit(pkt.PSN) {
	case wire.Duplicate:
		// Writes are idempotent but receives are not, so never
		// re-execute; reads are re-served (the original response may be
		// lost), and an atomic replays its cached response — re-executing
		// would apply the add twice.
		switch {
		case pkt.Opcode == OpRDMARead:
			return true
		case pkt.Opcode == OpAtomicFAdd && r.atomicRespValid && r.atomicRespPSN == pkt.PSN:
			h.tx.Send(r.atomicResp, r.atomicRespBytes)
		default:
			r.Ack()
		}
		return false
	case wire.Gap:
		return false
	}
	// In-order. Receiver-not-ready is detected before the PSN advances so
	// the requester replays the same packet after backoff.
	if (pkt.Opcode == OpSend || pkt.Opcode == OpRDMAWriteImm) && qp.rqHeadHW >= qp.rqTailHW {
		h.stats.RnrNaksSent++
		if h.e.Traced() {
			h.e.Tracev(h.cfg.Name, "retry", "retry: %s qp%d RNR (psn %d)", h.cfg.Name, qp.QPN, pkt.PSN)
		}
		h.tx.Send(Packet{Opcode: opRnrNak, SrcQPN: qp.QPN, DstQPN: qp.remoteQPN, PSN: pkt.PSN}, PktHeader)
		return false
	}
	// The accepted delivery holds its own payload reference until the
	// completer write lands; the window keeps the sender's until the ACK.
	// Retransmitted copies hold none: one arriving after the ACK is a
	// Duplicate and its bytes are never read.
	pkt.Buf.Hold()
	// The read/atomic response doubles as a cumulative ACK.
	r.Accept(pkt.Opcode == OpRDMARead || pkt.Opcode == OpAtomicFAdd)
	return true
}
