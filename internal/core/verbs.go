package core

import (
	"encoding/binary"
	"fmt"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

// Verbs is the InfiniBand Verbs API bound to one node, with the GPU port
// of §IV-B: ibv_post_send / ibv_post_recv / ibv_poll_cq callable from
// device code, and queue buffers placeable in host or GPU memory.
type Verbs struct {
	Node *cluster.Node
	HCA  *ibsim.HCA
	// StaticFieldOpt applies the paper's optimization of pre-converting
	// endianness-static WQE fields ("we used static converted values
	// where possible"). The measured 442-instruction post cost includes
	// this optimization; disabling it is an ablation.
	StaticFieldOpt bool
}

// NewVerbs binds the API to a node's HCA.
func NewVerbs(n *cluster.Node) *Verbs {
	if n.IB == nil {
		panic("core: node has no InfiniBand HCA")
	}
	return &Verbs{Node: n, HCA: n.IB, StaticFieldOpt: true}
}

// RegMR registers a memory region (host or GPU).
func (v *Verbs) RegMR(addr memspace.Addr, size uint64) *ibsim.MR {
	return v.HCA.RegMR(addr, size)
}

// VCQ wraps a completion queue with its software consumer state.
type VCQ struct {
	CQ    *ibsim.CQ
	CIDoc memspace.Addr // consumer-index doorbell record in queue memory
	head  int
	OnGPU bool
}

// VQP wraps a queue pair with software producer state.
type VQP struct {
	QP     *ibsim.QP
	SendCQ *VCQ
	RecvCQ *VCQ
	sqTail int
	rqTail int
	OnGPU  bool
}

// CreateQP allocates SQ/RQ/CQ rings in host or GPU memory (the paper's
// buffer-placement axis) and creates the QP.
func (v *Verbs) CreateQP(sqEntries, rqEntries, cqEntries int, onGPU bool) *VQP {
	alloc := v.Node.AllocHost
	if onGPU {
		alloc = v.Node.AllocDev
	}
	sq := alloc(uint64(sqEntries * ibsim.WQEBytes))
	rq := alloc(uint64(rqEntries * ibsim.RecvWQEBytes))
	newCQ := func() *VCQ {
		ring := alloc(uint64(cqEntries * ibsim.CQEBytes))
		ci := alloc(8)
		return &VCQ{CQ: v.HCA.CreateCQ(ring, cqEntries), CIDoc: ci, OnGPU: onGPU}
	}
	scq, rcq := newCQ(), newCQ()
	qp := v.HCA.CreateQP(sq, sqEntries, rq, rqEntries, scq.CQ, rcq.CQ)
	return &VQP{QP: qp, SendCQ: scq, RecvCQ: rcq, OnGPU: onGPU}
}

// ConnectVQPs brings both QPs of an RC connection to RTS.
func ConnectVQPs(a, b *VQP) { ibsim.ConnectQPs(a.QP, b.QP) }

// ---- GPU load/store routing: queue buffers may live in either memory ----

func devSt64(w *gpusim.Warp, addr memspace.Addr, val uint64) {
	if w.GPU().DevMem().Contains(addr) {
		w.StGlobalU64(addr, val)
	} else {
		w.StSysU64(addr, val)
	}
}

func devLd64(w *gpusim.Warp, addr memspace.Addr) uint64 {
	if w.GPU().DevMem().Contains(addr) {
		return w.LdGlobalU64(addr)
	}
	return w.LdSysU64(addr)
}

// loopBranch is the loop branch of a device-side spin.
const loopBranch = 2

// devSpin is the device-side spin loop every completion wait is: pre
// instructions, a devLd64 probe of addr, and a loop branch, until
// until(v, arg) holds or, when bounded, the deadline passes (see
// gpusim.Warp.SpinU64). It returns the last probe's value and whether
// until held.
func devSpin(w *gpusim.Warp, addr memspace.Addr, pre int, until func(v, arg uint64) bool, arg uint64, bounded bool, deadline sim.Time) (uint64, bool) {
	if bounded {
		return w.SpinU64Until(addr, pre, loopBranch, until, arg, deadline)
	}
	return w.SpinU64(addr, pre, loopBranch, until, arg), true
}

// Instruction-cost model for the device-side verbs port. The constants
// reproduce the paper's measurements: 442 instructions per ibv_post_send
// and 283 per successful ibv_poll_cq (§V-B.3), dominated by little- to
// big-endian conversion and queue bookkeeping on a single GPU thread.
const (
	postProlog       = 60 // ring arithmetic, ownership/wrap checks
	postDynField     = 40 // convert one request-dependent field (bswap etc.)
	postStaticField  = 8  // copy one pre-converted static field
	postStampCost    = 20 // stamp older queue elements for the prefetcher
	postDoorbellCalc = 80 // doorbell value, memory barriers
	postEpilog       = 30 // producer-index update, bookkeeping
	nDynFields       = 5  // laddr, raddr, length, wr_id, imm
	nStaticFields    = 4  // opcode, flags, lkey, rkey

	pollProbe    = 4   // ring arithmetic + validity test per probe
	pollConvert  = 60  // endianness conversion of the CQE
	pollQPLookup = 120 // "the associated QP has to be picked out of the list"
	pollHandle   = 70  // completion handling and validation
	pollCIUpdate = 10  // consumer-index doorbell record update
)

// vspan opens a pipeline-stage span on the node's engine when observed.
func (v *Verbs) vspan(comp, kind string, size int) sim.SpanID {
	e := v.Node.E
	if !e.Observing() {
		return 0
	}
	return e.SpanOpen(comp, kind, sim.Attr{Key: "size", Val: int64(size)})
}

// DevPostSend is ibv_post_send ported to the GPU: one thread builds the
// 64-byte big-endian WQE in queue memory (host or device), stamps the
// previous element, and rings the doorbell with an MMIO store.
func (v *Verbs) DevPostSend(w *gpusim.Warp, qp *VQP, wqe ibsim.WQE) {
	id := v.vspan(w.GPU().Name(), "wqe.post", wqe.Length)
	defer v.Node.E.SpanClose(id)
	slotIdx := qp.sqTail
	slot := qp.QP.SQSlotAddr(slotIdx)
	w.Exec(postProlog)

	// Stamp the previous queue element (reserved word, offset 56).
	w.Exec(postStampCost)
	prev := qp.QP.SQSlotAddr(slotIdx + qp.QP.SQEntries - 1)
	devSt64(w, prev+56, 0xdead)

	// Field conversion: dynamic fields are byte-swapped per request;
	// static ones were pre-converted at QP setup when the optimization is
	// on.
	w.Exec(nDynFields * postDynField)
	if v.StaticFieldOpt {
		w.Exec(nStaticFields * postStaticField)
	} else {
		w.Exec(nStaticFields * postDynField)
	}

	// Write the WQE as eight 64-bit stores.
	var buf [ibsim.WQEBytes]byte
	ibsim.EncodeWQE(wqe, buf[:])
	for i := 0; i < ibsim.WQEBytes/8; i++ {
		devSt64(w, slot+memspace.Addr(i*8), binary.LittleEndian.Uint64(buf[i*8:]))
	}

	// Doorbell: compute the value, fence, one MMIO store.
	w.Exec(postDoorbellCalc)
	w.ThreadfenceSystem()
	qp.sqTail++
	w.StSysU64(v.HCA.DoorbellSQAddr(), uint64(qp.QP.QPN)<<32|uint64(qp.sqTail))
	w.Exec(postEpilog)
}

// DevPostSendCollective is the warp-cooperative variant the paper's
// claims motivate: 8 lanes convert fields in parallel and the WQE leaves
// as one coalesced store, collapsing both instruction count and PCIe
// transactions.
func (v *Verbs) DevPostSendCollective(w *gpusim.Warp, qp *VQP, wqe ibsim.WQE) {
	if w.Lanes < 8 {
		panic("core: DevPostSendCollective needs at least 8 lanes")
	}
	id := v.vspan(w.GPU().Name(), "wqe.post", wqe.Length)
	defer v.Node.E.SpanClose(id)
	slot := qp.QP.SQSlotAddr(qp.sqTail)
	w.Exec(postProlog / 4) // cooperative ring management
	w.Exec(postDynField)   // all lanes convert their field concurrently
	var buf [ibsim.WQEBytes]byte
	ibsim.EncodeWQE(wqe, buf[:])
	prev := qp.QP.SQSlotAddr(qp.sqTail + qp.QP.SQEntries - 1)
	devSt64(w, prev+56, 0xdead)
	if w.GPU().DevMem().Contains(slot) {
		var vals [ibsim.WQEBytes / 8]uint64
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		w.StGlobalU64Coalesced(slot, vals[:])
	} else {
		w.StSysCoalesced(slot, buf[:])
	}
	w.Exec(postDoorbellCalc / 4)
	w.ThreadfenceSystem()
	qp.sqTail++
	w.StSysU64(v.HCA.DoorbellSQAddr(), uint64(qp.QP.QPN)<<32|uint64(qp.sqTail))
	w.Exec(postEpilog / 4)
}

// DevTryPollCQ is one ibv_poll_cq probe from the GPU. An empty probe
// costs one queue-memory load; a successful one additionally pays CQE
// conversion, QP lookup, consumption and the consumer-index update.
func (v *Verbs) DevTryPollCQ(w *gpusim.Warp, cq *VCQ) (ibsim.CQE, bool) {
	w.Exec(pollProbe)
	if !ibsim.CQEValidWord(devLd64(w, cq.CQ.EntryAddr(cq.head))) {
		return ibsim.CQE{}, false
	}
	return v.devConsumeCQE(w, cq), true
}

// cqeValid is ibsim.CQEValidWord as a spin predicate.
func cqeValid(first8, _ uint64) bool { return ibsim.CQEValidWord(first8) }

// devPollCQ spins on the head of cq, one DevTryPollCQ probe and a loop
// branch per iteration, until a completion arrives or, when bounded,
// the deadline passes, and consumes the completion.
func (v *Verbs) devPollCQ(w *gpusim.Warp, cq *VCQ, bounded bool, deadline sim.Time) (ibsim.CQE, bool) {
	if _, ok := devSpin(w, cq.CQ.EntryAddr(cq.head), pollProbe, cqeValid, 0, bounded, deadline); !ok {
		return ibsim.CQE{}, false
	}
	return v.devConsumeCQE(w, cq), true
}

// devConsumeCQE is the consume step after a device probe found the CQE
// at the head of cq valid.
func (v *Verbs) devConsumeCQE(w *gpusim.Warp, cq *VCQ) ibsim.CQE {
	slot := cq.CQ.EntryAddr(cq.head)
	// Read the remaining 24 bytes of the CQE — independent loads that
	// pipeline into one round trip.
	var rest [ibsim.CQEBytes - 8]byte
	if w.GPU().DevMem().Contains(slot) {
		w.LdGlobalBytes(slot+8, rest[:])
	} else {
		w.LdSysBytes(slot+8, rest[:])
	}
	w.Exec(pollConvert + pollQPLookup + pollHandle)
	// Functional decode from queue memory.
	var buf [ibsim.CQEBytes]byte
	if err := v.Node.Space.Read(slot, buf[:]); err != nil {
		panic(fmt.Sprintf("core: poll cq: %v", err))
	}
	cqe := ibsim.DecodeCQE(buf[:])
	// Free the CQE (zero all four words) and update the consumer index.
	for i := 0; i < ibsim.CQEBytes/8; i++ {
		devSt64(w, slot+memspace.Addr(i*8), 0)
	}
	w.Exec(pollCIUpdate)
	devSt64(w, cq.CIDoc, uint64(cq.head+1))
	cq.head++
	return cqe
}

// DevPollCQ spins until a completion arrives.
func (v *Verbs) DevPollCQ(w *gpusim.Warp, cq *VCQ) ibsim.CQE {
	id := v.vspan(w.GPU().Name(), "poll.cq", 0)
	cqe, _ := v.devPollCQ(w, cq, false, 0)
	v.Node.E.SpanClose(id)
	return cqe
}

// DevPollCQTimeout spins like DevPollCQ but gives up after `timeout` of
// virtual time; ok is false when the deadline passed with no completion.
// Callers must check cqe.Status — a retry-exhausted fabric delivers its
// verdict as an error CQE, not as a timeout.
func (v *Verbs) DevPollCQTimeout(w *gpusim.Warp, cq *VCQ, timeout sim.Duration) (ibsim.CQE, bool) {
	id := v.vspan(w.GPU().Name(), "poll.cq", 0)
	cqe, ok := v.devPollCQ(w, cq, true, w.Now().Add(timeout))
	v.Node.E.SpanClose(id)
	return cqe, ok
}

// DevPostRecv posts a receive WQE from the GPU.
func (v *Verbs) DevPostRecv(w *gpusim.Warp, qp *VQP, rwqe ibsim.RecvWQE) {
	slot := qp.QP.RQSlotAddr(qp.rqTail)
	w.Exec(40)
	var buf [ibsim.RecvWQEBytes]byte
	ibsim.EncodeRecvWQE(rwqe, buf[:])
	for i := 0; i < ibsim.RecvWQEBytes/8; i++ {
		devSt64(w, slot+memspace.Addr(i*8), binary.LittleEndian.Uint64(buf[i*8:]))
	}
	qp.rqTail++
	w.StSysU64(v.HCA.DoorbellRQAddr(), uint64(qp.QP.QPN)<<32|uint64(qp.rqTail))
}

// ---- host-side verbs ----

// HostPostSend is the CPU fast path: descriptor generation is cheap and
// the WQE reaches queue memory at cache speed (host rings) or as one
// posted burst (GPU rings).
//
//putget:hot
func (v *Verbs) HostPostSend(p *sim.Proc, qp *VQP, wqe ibsim.WQE) {
	cpu := v.Node.CPU
	id := v.vspan(cpu.Name(), "wqe.post", wqe.Length)
	defer v.Node.E.SpanClose(id)
	cpu.GenWR(p)
	slot := qp.QP.SQSlotAddr(qp.sqTail)
	var buf [ibsim.WQEBytes]byte
	ibsim.EncodeWQE(wqe, buf[:])
	cpu.Write(p, slot, buf[:])
	qp.sqTail++
	cpu.WriteU64(p, v.HCA.DoorbellSQAddr(), uint64(qp.QP.QPN)<<32|uint64(qp.sqTail))
}

// HostPostRecv posts a receive WQE from the CPU.
func (v *Verbs) HostPostRecv(p *sim.Proc, qp *VQP, rwqe ibsim.RecvWQE) {
	cpu := v.Node.CPU
	cpu.GenWR(p)
	slot := qp.QP.RQSlotAddr(qp.rqTail)
	var buf [ibsim.RecvWQEBytes]byte
	ibsim.EncodeRecvWQE(rwqe, buf[:])
	cpu.Write(p, slot, buf[:])
	qp.rqTail++
	cpu.WriteU64(p, v.HCA.DoorbellRQAddr(), uint64(qp.QP.QPN)<<32|uint64(qp.rqTail))
}

// HostTryPollCQ is one CPU probe of a completion queue.
func (v *Verbs) HostTryPollCQ(p *sim.Proc, cq *VCQ) (ibsim.CQE, bool) {
	if !ibsim.CQEValidWord(v.Node.CPU.ReadU64(p, cq.CQ.EntryAddr(cq.head))) {
		return ibsim.CQE{}, false
	}
	return v.hostConsumeCQE(p, cq), true
}

// hostConsumeCQE is the consume step after a host probe found the CQE at
// the head of cq valid: it reads the entry, frees it and advances the
// consumer index.
//
//putget:hot
func (v *Verbs) hostConsumeCQE(p *sim.Proc, cq *VCQ) ibsim.CQE {
	cpu := v.Node.CPU
	slot := cq.CQ.EntryAddr(cq.head)
	var buf [ibsim.CQEBytes]byte
	cpu.Read(p, slot, buf[:])
	cqe := ibsim.DecodeCQE(buf[:])
	clear(buf[:])
	cpu.Write(p, slot, buf[:])
	cpu.WriteU64(p, cq.CIDoc, uint64(cq.head+1))
	cq.head++
	return cqe
}

// HostPollCQ spins until a completion arrives.
func (v *Verbs) HostPollCQ(p *sim.Proc, cq *VCQ) ibsim.CQE {
	id := v.vspan(v.Node.CPU.Name(), "poll.cq", 0)
	v.Node.CPU.SpinU64(p, cq.CQ.EntryAddr(cq.head), ibsim.CQEValidWord)
	cqe := v.hostConsumeCQE(p, cq)
	v.Node.E.SpanClose(id)
	return cqe
}

// HostPollCQTimeout is the CPU-side bounded CQ poll.
func (v *Verbs) HostPollCQTimeout(p *sim.Proc, cq *VCQ, timeout sim.Duration) (ibsim.CQE, bool) {
	id := v.vspan(v.Node.CPU.Name(), "poll.cq", 0)
	if _, ok := v.Node.CPU.SpinU64Until(p, cq.CQ.EntryAddr(cq.head), ibsim.CQEValidWord, p.Now().Add(timeout)); !ok {
		v.Node.E.SpanClose(id)
		return ibsim.CQE{}, false
	}
	cqe := v.hostConsumeCQE(p, cq)
	v.Node.E.SpanClose(id)
	return cqe, true
}
