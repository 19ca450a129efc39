package transport

import (
	"encoding/binary"

	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

// Verbs adapts core.Verbs to the Transport/Endpoint interfaces. Like the
// EXTOLL adapter it is pure delegation: descriptor posting keeps the
// paper's measured per-WQE instruction footprint (Table II), CQ polling
// keeps its conversion/lookup costs, and queue placement follows the
// ConnHint, so numbers through this adapter equal the raw Verbs path.
type Verbs struct {
	cl *cluster.Cluster
	// vs binds one core.Verbs per node on first touch. Lookup-only map.
	vs map[*cluster.Node]*core.Verbs
}

// NewVerbs builds the InfiniBand adapter over a cluster from
// cluster.NewClusterOn(cluster.FabricIB, ...) or NewIBPair.
func NewVerbs(cl *cluster.Cluster) *Verbs {
	return &Verbs{cl: cl, vs: map[*cluster.Node]*core.Verbs{}}
}

// Kind implements Transport.
func (t *Verbs) Kind() Kind { return KindIB }

// Cluster implements Transport.
func (t *Verbs) Cluster() *cluster.Cluster { return t.cl }

// Verbs exposes the Verbs binding of node i for cost-model experiments
// that need the raw API.
func (t *Verbs) Verbs(i int) *core.Verbs { return t.verbs(t.cl.Node(i)) }

func (t *Verbs) verbs(n *cluster.Node) *core.Verbs {
	if v := t.vs[n]; v != nil {
		return v
	}
	t.cl.IndexOf(n) // panics on foreign nodes
	v := core.NewVerbs(n)
	t.vs[n] = v
	return v
}

// Register implements Transport.
func (t *Verbs) Register(n *cluster.Node, base memspace.Addr, size uint64) Region {
	return Region{Base: base, Size: size, kind: KindIB, mr: t.verbs(n).RegMR(base, size)}
}

// Connect implements Transport: one queue pair per call between nodes 0
// and 1, rings sized and placed per the hint. With hint.Atomics each
// endpoint additionally gets an 8-byte registered device-memory landing
// buffer for fetch-add results; without it the allocation layout is
// untouched.
func (t *Verbs) Connect(idx int, hint ConnHint) (Endpoint, Endpoint) {
	return t.connect(t.cl.Node(0), t.cl.Node(1), hint)
}

// ConnectPair implements Transport: one fresh queue pair per node,
// RC-connected.
func (t *Verbs) ConnectPair(na, nb *cluster.Node, hint ConnHint) (Endpoint, Endpoint) {
	if na == nb {
		panic("transport: ConnectPair needs two distinct nodes")
	}
	return t.connect(na, nb, hint)
}

// connect creates and RC-connects one queue pair per node, and binds the
// routes that carry packets sent from each QPN to the other node.
func (t *Verbs) connect(na, nb *cluster.Node, hint ConnHint) (Endpoint, Endpoint) {
	sq, rq, cq := hint.SendEntries, hint.RecvEntries, hint.CompEntries
	if sq == 0 {
		sq = 512
	}
	if rq == 0 {
		rq = 64
	}
	if cq == 0 {
		cq = 512
	}
	va, vb := t.verbs(na), t.verbs(nb)
	qa := va.CreateQP(sq, rq, cq, hint.QueuesOnGPU)
	qb := vb.CreateQP(sq, rq, cq, hint.QueuesOnGPU)
	core.ConnectVQPs(qa, qb)
	t.cl.BindIB(na, qa.QP.QPN, nb)
	t.cl.BindIB(nb, qb.QP.QPN, na)
	ea := &ibEndpoint{v: va, node: na, qp: qa}
	eb := &ibEndpoint{v: vb, node: nb, qp: qb}
	if hint.Atomics {
		ea.scratch = na.AllocDev(8)
		ea.scratchMR = va.RegMR(ea.scratch, 8)
		eb.scratch = nb.AllocDev(8)
		eb.scratchMR = vb.RegMR(eb.scratch, 8)
	}
	return ea, eb
}

// ibEndpoint is one side of an IB queue-pair connection. txSeq numbers
// posted operations (it becomes the WQE's WRID and, for remote
// completions, the immediate the peer reaps as Completion.Value); rxSeq
// numbers preposted arrival slots. early holds local completions a get
// or fetch-add reaped ahead of its own CQE (RC completes the send queue
// in post order, so a signaled put posted earlier completes first); the
// CompLocal waits hand those out before polling the send CQ.
type ibEndpoint struct {
	v         *core.Verbs
	node      *cluster.Node
	qp        *core.VQP
	txSeq     uint64
	rxSeq     uint64
	scratch   memspace.Addr
	scratchMR *ibsim.MR
	early     []Completion
}

// Node implements Endpoint.
func (e *ibEndpoint) Node() *cluster.Node { return e.node }

// putWQE builds the write descriptor for one put; the completion flags
// map to IB's signaling (local) and write-with-immediate (remote) forms.
func (e *ibEndpoint) putWQE(src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) ibsim.WQE {
	e.txSeq++
	wqe := ibsim.WQE{
		Opcode: ibsim.OpRDMAWrite, WRID: e.txSeq,
		LAddr: uint64(src.Base) + srcOff, LKey: src.mr.LKey, Length: size,
		RAddr: uint64(dst.Base) + dstOff, RKey: dst.mr.RKey,
	}
	if flags&FlagLocalComp != 0 {
		wqe.Flags |= ibsim.FlagSignaled
	}
	if flags&FlagRemoteComp != 0 {
		wqe.Opcode = ibsim.OpRDMAWriteImm
		wqe.Imm = uint32(e.txSeq)
	}
	return wqe
}

func (e *ibEndpoint) immWQE(value uint64, dst Region, dstOff uint64, size, flags int) ibsim.WQE {
	if size > 8 {
		panic("transport: PutImm size > 8")
	}
	e.txSeq++
	var vb [8]byte
	binary.LittleEndian.PutUint64(vb[:], value)
	wqe := ibsim.WQE{
		Opcode: ibsim.OpRDMAWrite, Flags: ibsim.FlagInline, WRID: e.txSeq,
		Inline: vb[:size], Length: size,
		RAddr: uint64(dst.Base) + dstOff, RKey: dst.mr.RKey,
	}
	if flags&FlagLocalComp != 0 {
		wqe.Flags |= ibsim.FlagSignaled
	}
	if flags&FlagRemoteComp != 0 {
		wqe.Opcode = ibsim.OpRDMAWriteImm
		wqe.Imm = uint32(e.txSeq)
	}
	return wqe
}

func (e *ibEndpoint) getWQE(dst Region, dstOff uint64, src Region, srcOff uint64, size int) ibsim.WQE {
	e.txSeq++
	return ibsim.WQE{
		Opcode: ibsim.OpRDMARead, Flags: ibsim.FlagSignaled, WRID: e.txSeq,
		LAddr: uint64(dst.Base) + dstOff, LKey: dst.mr.LKey, Length: size,
		RAddr: uint64(src.Base) + srcOff, RKey: src.mr.RKey,
	}
}

func (e *ibEndpoint) fetchAddWQE(addend uint64, dst Region, dstOff uint64) ibsim.WQE {
	if e.scratchMR == nil {
		panic("transport: FetchAdd needs ConnHint.Atomics on InfiniBand")
	}
	e.txSeq++
	return ibsim.WQE{
		Opcode: ibsim.OpAtomicFAdd, Flags: ibsim.FlagSignaled, WRID: e.txSeq,
		LAddr: uint64(e.scratch), LKey: e.scratchMR.LKey, Length: 8,
		RAddr: uint64(dst.Base) + dstOff, RKey: dst.mr.RKey, Add: addend,
	}
}

func (e *ibEndpoint) cq(c CompClass) *core.VCQ {
	if c == CompLocal {
		return e.qp.SendCQ
	}
	return e.qp.RecvCQ
}

// popEarly hands out the oldest queued local completion, if any, for a
// CompLocal wait.
func (e *ibEndpoint) popEarly(c CompClass) (Completion, bool) {
	if c != CompLocal || len(e.early) == 0 {
		return Completion{}, false
	}
	comp := e.early[0]
	e.early = e.early[1:]
	return comp, true
}

// devReap polls the send CQ until the CQE of the operation posted as
// wrid arrives, queueing every earlier CQE for the CompLocal waits.
func (e *ibEndpoint) devReap(w *gpusim.Warp, wrid uint64) {
	for {
		//putget:allow boundedwait -- gets and fetch-adds are synchronous by definition: the operation's own CQE wait IS the operation; bounded gets go through DevTryComplete/DevWaitCompleteTimeout
		cqe := e.v.DevPollCQ(w, e.qp.SendCQ)
		if cqe.WRID == wrid {
			return
		}
		e.early = append(e.early, cqeCompletion(cqe))
	}
}

// hostReap is devReap's CPU-side mirror.
func (e *ibEndpoint) hostReap(p *sim.Proc, wrid uint64) {
	for {
		//putget:allow boundedwait -- gets and fetch-adds are synchronous by definition: the operation's own CQE wait IS the operation
		cqe := e.v.HostPollCQ(p, e.qp.SendCQ)
		if cqe.WRID == wrid {
			return
		}
		e.early = append(e.early, cqeCompletion(cqe))
	}
}

func cqeCompletion(cqe ibsim.CQE) Completion {
	return Completion{
		Size: cqe.ByteLen, Value: uint64(cqe.Imm),
		Err:     cqe.Status != ibsim.StatusOK,
		Timeout: cqe.Status == ibsim.StatusRetryExc || cqe.Status == ibsim.StatusRnrExc,
	}
}

// DevPut implements Endpoint.
func (e *ibEndpoint) DevPut(w *gpusim.Warp, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) {
	e.v.DevPostSend(w, e.qp, e.putWQE(src, srcOff, dst, dstOff, size, flags))
}

// DevPutImm implements Endpoint: the value travels inline in the WQE.
func (e *ibEndpoint) DevPutImm(w *gpusim.Warp, value uint64, dst Region, dstOff uint64, size, flags int) {
	e.v.DevPostSend(w, e.qp, e.immWQE(value, dst, dstOff, size, flags))
}

// DevPutCollective implements Endpoint.
func (e *ibEndpoint) DevPutCollective(w *gpusim.Warp, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) {
	e.v.DevPostSendCollective(w, e.qp, e.putWQE(src, srcOff, dst, dstOff, size, flags))
}

// DevGet implements Endpoint: an RDMA read completes into the send CQ
// when the response data has landed.
func (e *ibEndpoint) DevGet(w *gpusim.Warp, dst Region, dstOff uint64, src Region, srcOff uint64, size int) {
	wqe := e.getWQE(dst, dstOff, src, srcOff, size)
	e.v.DevPostSend(w, e.qp, wqe)
	e.devReap(w, wqe.WRID)
}

// DevFetchAdd implements Endpoint: the atomic's CQE arrives after the old
// value has landed in the scratch buffer, so the load below is ordered.
func (e *ibEndpoint) DevFetchAdd(w *gpusim.Warp, addend uint64, dst Region, dstOff uint64) uint64 {
	wqe := e.fetchAddWQE(addend, dst, dstOff)
	e.v.DevPostSend(w, e.qp, wqe)
	e.devReap(w, wqe.WRID)
	return w.LdGlobalU64(e.scratch)
}

// DevTryComplete implements Endpoint.
func (e *ibEndpoint) DevTryComplete(w *gpusim.Warp, c CompClass) (Completion, bool) {
	if comp, ok := e.popEarly(c); ok {
		return comp, true
	}
	cqe, ok := e.v.DevTryPollCQ(w, e.cq(c))
	return cqeCompletion(cqe), ok
}

// DevWaitComplete implements Endpoint.
func (e *ibEndpoint) DevWaitComplete(w *gpusim.Warp, c CompClass) Completion {
	if comp, ok := e.popEarly(c); ok {
		return comp
	}
	return cqeCompletion(e.v.DevPollCQ(w, e.cq(c)))
}

// DevWaitCompleteTimeout implements Endpoint.
func (e *ibEndpoint) DevWaitCompleteTimeout(w *gpusim.Warp, c CompClass, timeout sim.Duration) (Completion, bool) {
	if comp, ok := e.popEarly(c); ok {
		return comp, true
	}
	cqe, ok := e.v.DevPollCQTimeout(w, e.cq(c), timeout)
	return cqeCompletion(cqe), ok
}

// HostPut implements Endpoint.
func (e *ibEndpoint) HostPut(p *sim.Proc, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) {
	e.v.HostPostSend(p, e.qp, e.putWQE(src, srcOff, dst, dstOff, size, flags))
}

// HostPutImm implements Endpoint.
func (e *ibEndpoint) HostPutImm(p *sim.Proc, value uint64, dst Region, dstOff uint64, size, flags int) {
	e.v.HostPostSend(p, e.qp, e.immWQE(value, dst, dstOff, size, flags))
}

// HostGet implements Endpoint.
func (e *ibEndpoint) HostGet(p *sim.Proc, dst Region, dstOff uint64, src Region, srcOff uint64, size int) {
	wqe := e.getWQE(dst, dstOff, src, srcOff, size)
	e.v.HostPostSend(p, e.qp, wqe)
	e.hostReap(p, wqe.WRID)
}

// HostFetchAdd implements Endpoint.
func (e *ibEndpoint) HostFetchAdd(p *sim.Proc, addend uint64, dst Region, dstOff uint64) uint64 {
	wqe := e.fetchAddWQE(addend, dst, dstOff)
	e.v.HostPostSend(p, e.qp, wqe)
	e.hostReap(p, wqe.WRID)
	return e.node.CPU.ReadU64(p, e.scratch)
}

// HostTryComplete implements Endpoint.
func (e *ibEndpoint) HostTryComplete(p *sim.Proc, c CompClass) (Completion, bool) {
	if comp, ok := e.popEarly(c); ok {
		return comp, true
	}
	cqe, ok := e.v.HostTryPollCQ(p, e.cq(c))
	return cqeCompletion(cqe), ok
}

// HostWaitComplete implements Endpoint.
func (e *ibEndpoint) HostWaitComplete(p *sim.Proc, c CompClass) Completion {
	if comp, ok := e.popEarly(c); ok {
		return comp
	}
	return cqeCompletion(e.v.HostPollCQ(p, e.cq(c)))
}

// HostWaitCompleteTimeout implements Endpoint.
func (e *ibEndpoint) HostWaitCompleteTimeout(p *sim.Proc, c CompClass, timeout sim.Duration) (Completion, bool) {
	if comp, ok := e.popEarly(c); ok {
		return comp, true
	}
	cqe, ok := e.v.HostPollCQTimeout(p, e.cq(c), timeout)
	return cqeCompletion(cqe), ok
}

// HostPrepostArrivals implements Endpoint: one receive WQE per expected
// write-with-immediate.
func (e *ibEndpoint) HostPrepostArrivals(p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		e.v.HostPostRecv(p, e.qp, ibsim.RecvWQE{WRID: e.rxSeq})
		e.rxSeq++
	}
}
