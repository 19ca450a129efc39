package ibsim

import (
	"encoding/binary"
	"fmt"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
	"putget/internal/wire"
)

// Config fixes the HCA's processing model.
type Config struct {
	Name    string
	BARBase memspace.Addr
	// WQEFetchBatch bounds how many SQ WQEs one DMA burst fetches after a
	// doorbell (hardware prefetches several descriptors per read).
	WQEFetchBatch int
	// ProcessTime is the engine occupancy per send WQE.
	ProcessTime sim.Duration
	// RxProcessTime is the engine occupancy per received packet.
	RxProcessTime sim.Duration
	// DMAContexts bounds outstanding DMA jobs.
	DMAContexts int
	// MTU is the path maximum transfer unit; the wire carries one header
	// per MTU segment. 0 defaults to 2048.
	MTU int
	// Rel enables the RC reliability protocol (PSN sequencing, ACK/NAK,
	// retransmission). nil — the default — assumes a perfect wire and
	// keeps the seed's zero-overhead fast path bit-identical.
	Rel *RelConfig
	// PCIe configures the HCA's fabric port.
	PCIe pcie.EndpointConfig
}

// Stats counts HCA activity.
type Stats struct {
	WQEsExecuted   uint64
	PacketsRx      uint64
	CQEsWritten    uint64
	CQOverflows    uint64
	RNRDrops       uint64 // sends/write-imms arriving with an empty RQ
	ProtectionErrs uint64
	ReadsServed    uint64 // RDMA READ requests answered
	AtomicsServed  uint64 // atomic fetch-add requests answered
	FlushedWQEs    uint64 // WQEs completed with flush error on an ERR QP
	DroppedOnErrQP uint64 // packets dropped because the QP was in ERR

	// Reliability-protocol counters (all zero when Config.Rel == nil).
	wire.RelStats
	RnrNaksSent    uint64
	RnrNaksRx      uint64
	IcrcDrops      uint64 // packets discarded for a bad invariant CRC
	RetryExhausted uint64 // QPs driven to ERR by retry/RNR exhaustion
}

// Packet is one RC transport packet between the two HCAs.
type Packet struct {
	Opcode int
	Flags  int
	SrcQPN uint32
	DstQPN uint32
	RAddr  uint64
	RKey   uint32
	Imm    uint32
	WRID   uint64
	// LAddr echoes the requester's landing address on RDMA READ requests
	// so the response can be scattered without extra origin state.
	LAddr uint64
	// Add carries the fetch-and-add operand on OpAtomicFAdd requests
	// (real IB's AtomicETH field).
	Add  uint64
	Data []byte
	// Buf is the engine payload buffer backing Data on DMA-fetched
	// requests and read responses; nil for inline data and atomics. The
	// packet holds one reference until its completer write lands (see
	// sim.Payload).
	Buf *sim.Payload
	// PSN sequences request packets when the reliability protocol is on;
	// ACK/NAK packets carry the next expected PSN here, read responses the
	// request PSN they answer.
	PSN uint32
	// Poisoned marks a payload damaged in flight; the receiver's ICRC
	// check discards the packet.
	Poisoned bool
}

// Internal opcodes (above the Verbs WQE opcode space).
const (
	// opReadResp is an RDMA READ response packet.
	opReadResp = 100
	// opAtomicResp answers an atomic fetch-add with the pre-add value.
	opAtomicResp = 104
	// opAck acknowledges all PSNs below Packet.PSN.
	opAck = 101
	// opNak reports a sequence gap: resend from Packet.PSN.
	opNak = 102
	// opRnrNak reports receiver-not-ready: resend Packet.PSN after backoff.
	opRnrNak = 103
	// opRemAccessNak refuses a read or atomic whose rkey check failed
	// (a remote access error): it carries the request's PSN, WRID and,
	// in Imm, its opcode.
	opRemAccessNak = 105
)

// PktHeader is the wire overhead per packet (LRH+BTH+RETH+ICRC ≈ 30-58 B).
const PktHeader = 48

// mtu returns the configured path MTU.
func (h *HCA) mtu() int {
	if h.cfg.MTU > 0 {
		return h.cfg.MTU
	}
	return 2048
}

// wireBytes is the on-cable size of a payload: one header per MTU segment.
func (h *HCA) wireBytes(payload int) int {
	segs := (payload + h.mtu() - 1) / h.mtu()
	if segs < 1 {
		segs = 1
	}
	return payload + segs*PktHeader
}

// DoorbellSQ and DoorbellRQ are register offsets in the HCA BAR page.
const (
	DoorbellSQ = 0x00
	DoorbellRQ = 0x08
)

// MR is a registered memory region. InfiniBand identifies memory by
// virtual address + key pair, unlike EXTOLL's NLAs.
type MR struct {
	Base memspace.Addr
	Size uint64
	LKey uint32
	RKey uint32
}

// Contains checks [addr, addr+n) against the registration.
func (m *MR) Contains(addr uint64, n int) bool {
	return addr >= uint64(m.Base) && addr+uint64(n) <= uint64(m.Base)+m.Size
}

// CQ is a completion queue whose ring lives wherever software allocated
// it — host memory or GPU device memory; the paper's Table II compares
// exactly these two placements.
type CQ struct {
	hca     *HCA
	Ring    memspace.Addr
	Entries int
	wp      int
}

// EntryAddr returns the address of CQE slot idx (mod ring size).
func (c *CQ) EntryAddr(idx int) memspace.Addr {
	return c.Ring + memspace.Addr((idx%c.Entries)*CQEBytes)
}

// push writes a CQE into the next slot (posted DMA write); software frees
// slots by zeroing them after polling.
//
//putget:hot
func (c *CQ) push(cqe CQE) {
	addr := c.EntryAddr(c.wp)
	if w0, err := c.hca.f.Space().ReadU64(addr); err == nil && CQEValidWord(w0) {
		c.hca.stats.CQOverflows++
		return
	}
	cqe.Valid = true
	var buf [CQEBytes]byte
	EncodeCQE(cqe, buf[:])
	deliver := c.hca.f.PostedWrite(c.hca.ep, addr, buf[:])
	if e := c.hca.e; e.Observing() {
		// Opened after the posted write so it out-nests the pcie span
		// covering the same interval.
		id := e.SpanOpen(c.hca.cfg.Name, "cqe.write", sim.Attr{Key: "qpn", Val: int64(cqe.QPN)})
		e.SpanCloseAt(id, deliver)
	}
	c.wp++
	c.hca.stats.CQEsWritten++
}

// QP states, following the Verbs state machine (simplified: no SQD).
type QPState int

// Valid states.
const (
	StateReset QPState = iota
	StateInit
	StateRTR
	StateRTS
	StateErr
)

// String implements fmt.Stringer.
func (s QPState) String() string {
	switch s {
	case StateReset:
		return "RESET"
	case StateInit:
		return "INIT"
	case StateRTR:
		return "RTR"
	case StateRTS:
		return "RTS"
	case StateErr:
		return "ERR"
	}
	return "?"
}

// QP is a queue pair. The send and receive rings live wherever software
// allocated them (host or GPU memory).
type QP struct {
	hca       *HCA
	QPN       uint32
	SQ        memspace.Addr
	SQEntries int
	RQ        memspace.Addr
	RQEntries int
	SendCQ    *CQ
	RecvCQ    *CQ

	remoteQPN uint32
	state     QPState

	sqHeadHW int // next WQE the hardware will fetch
	sqTailHW int // producer index last doorbelled
	rqHeadHW int
	rqTailHW int
	fetching int // WQEs currently in a descriptor DMA burst

	doorbell *sim.Signal
	lastSent *txOp // chains senders to keep RC ordering

	// Send-engine state: its continuation, and the descriptor batch in
	// process (sqBuf, its fetch span, the next WQE index and the WQE
	// being executed).
	sq     sim.Step[*QP]
	sqBuf  []byte
	sqSpan sim.SpanID
	sqI    int
	sqWQE  WQE

	rel *qpRel // reliability state; nil on the perfect-wire fast path
}

// SQSlotAddr returns the address of send-WQE slot idx (mod ring).
func (q *QP) SQSlotAddr(idx int) memspace.Addr {
	return q.SQ + memspace.Addr((idx%q.SQEntries)*WQEBytes)
}

// RQSlotAddr returns the address of recv-WQE slot idx (mod ring).
func (q *QP) RQSlotAddr(idx int) memspace.Addr {
	return q.RQ + memspace.Addr((idx%q.RQEntries)*RecvWQEBytes)
}

// HCA is one InfiniBand adapter on a node fabric.
type HCA struct {
	cfg Config
	e   *sim.Engine
	f   *pcie.Fabric
	ep  *pcie.Endpoint
	bar memspace.Region

	mrs      []*MR
	nextKey  uint32
	qps      map[uint32]*QP
	nextQPN  uint32
	dmaSlots *sim.Resource
	tx       wire.Conduit[Packet]
	rxIn     wire.Conduit[Packet] // delivered packets awaiting the receive engine
	rx       rxEngine
	txFree   []*txOp // idle per-WQE contexts
	stats    Stats
}

// New creates an HCA and claims its doorbell BAR.
func New(e *sim.Engine, f *pcie.Fabric, cfg Config) *HCA {
	if cfg.WQEFetchBatch <= 0 || cfg.DMAContexts <= 0 {
		panic("ibsim: invalid config")
	}
	h := &HCA{cfg: cfg, e: e, f: f, qps: map[uint32]*QP{}, nextKey: 1000, nextQPN: 1}
	h.ep = f.AddEndpoint(cfg.Name, cfg.PCIe)
	h.bar = memspace.Region{Base: cfg.BARBase, Size: 4096}
	f.ClaimMMIO(h.ep, h.bar, (*dbTarget)(h))
	h.dmaSlots = sim.NewResource(e, cfg.DMAContexts)
	h.rx = rxEngine{h: h}
	h.rx.Init(e, &h.rx)
	return h
}

// Endpoint returns the HCA's fabric port.
func (h *HCA) Endpoint() *pcie.Endpoint { return h.ep }

// BAR returns the doorbell page region.
func (h *HCA) BAR() memspace.Region { return h.bar }

// DoorbellSQAddr returns the SQ doorbell register address.
func (h *HCA) DoorbellSQAddr() memspace.Addr { return h.bar.Base + DoorbellSQ }

// DoorbellRQAddr returns the RQ doorbell register address.
func (h *HCA) DoorbellRQAddr() memspace.Addr { return h.bar.Base + DoorbellRQ }

// Stats returns a snapshot of activity counters.
func (h *HCA) Stats() Stats { return h.stats }

// AttachWire sets the transmit link and starts the receive engine.
func (h *HCA) AttachWire(tx, rx wire.Conduit[Packet]) {
	h.tx, h.rxIn = tx, rx
	h.rx.At(h.e.Now(), (*rxEngine).wake)
}

// RegMR registers [base, base+size) and returns its keys. With the
// GPUDirect patch (always applied here) GPU device memory registers the
// same way as host memory.
func (h *HCA) RegMR(base memspace.Addr, size uint64) *MR {
	mr := &MR{Base: base, Size: size, LKey: h.nextKey, RKey: h.nextKey + 1}
	h.nextKey += 2
	h.mrs = append(h.mrs, mr)
	return mr
}

func (h *HCA) lookupLKey(key uint32, addr uint64, n int) (*MR, bool) {
	for _, mr := range h.mrs {
		if mr.LKey == key && mr.Contains(addr, n) {
			return mr, true
		}
	}
	return nil, false
}

func (h *HCA) lookupRKey(key uint32, addr uint64, n int) (*MR, bool) {
	for _, mr := range h.mrs {
		if mr.RKey == key && mr.Contains(addr, n) {
			return mr, true
		}
	}
	return nil, false
}

// CreateCQ wraps a software-allocated ring as a completion queue.
func (h *HCA) CreateCQ(ring memspace.Addr, entries int) *CQ {
	if entries <= 0 {
		panic("ibsim: CQ needs entries")
	}
	return &CQ{hca: h, Ring: ring, Entries: entries}
}

// CreateQP wraps software-allocated SQ/RQ rings as a queue pair.
func (h *HCA) CreateQP(sq memspace.Addr, sqEntries int, rq memspace.Addr, rqEntries int, sendCQ, recvCQ *CQ) *QP {
	if sqEntries <= 0 || rqEntries <= 0 {
		panic("ibsim: QP needs ring entries")
	}
	qp := &QP{
		hca: h, QPN: h.nextQPN, SQ: sq, SQEntries: sqEntries,
		RQ: rq, RQEntries: rqEntries, SendCQ: sendCQ, RecvCQ: recvCQ,
		doorbell: sim.NewSignal(h.e),
	}
	qp.sq.Init(h.e, qp)
	if h.cfg.Rel != nil {
		qp.rel = newQPRel(h, qp)
	}
	h.nextQPN++
	h.qps[qp.QPN] = qp
	return qp
}

// State returns the QP's current state.
func (q *QP) State() QPState { return q.state }

// ModifyQP drives the Verbs state machine. Legal forward transitions are
// RESET→INIT→RTR→RTS; any state may move to ERR; ERR or any state may be
// reset to RESET (which also clears the hardware indices).
func (q *QP) ModifyQP(next QPState) error {
	legal := next == StateErr || next == StateReset ||
		(q.state == StateReset && next == StateInit) ||
		(q.state == StateInit && next == StateRTR) ||
		(q.state == StateRTR && next == StateRTS)
	if !legal {
		return fmt.Errorf("ibsim: illegal QP transition %v -> %v", q.state, next)
	}
	if next == StateErr || next == StateReset {
		// Verbs semantics: outstanding work completes with
		// IBV_WC_WR_FLUSH_ERR instead of silently vanishing.
		q.state = next
		q.flush()
	}
	if next == StateReset {
		q.sqHeadHW, q.sqTailHW, q.rqHeadHW, q.rqTailHW = 0, 0, 0, 0
	}
	q.state = next
	return nil
}

// flush completes every outstanding WQE — unacked requests awaiting the
// reliability protocol, doorbelled-but-unfetched send WQEs, and posted
// receives — with a flush-error CQE. WQEs already inside a descriptor DMA
// burst are left to the send engine, which flushes them at execute time.
func (q *QP) flush() {
	h := q.hca
	if q.rel != nil {
		for _, en := range q.rel.Window() {
			h.stats.FlushedWQEs++
			q.SendCQ.push(CQE{Opcode: en.Pkt.Opcode, WRID: en.Pkt.WRID, QPN: q.QPN, Status: StatusFlushErr})
		}
		q.rel.Drain()
	}
	start := q.sqHeadHW + q.fetching
	for i := start; i < q.sqTailHW; i++ {
		buf := make([]byte, WQEBytes)
		if err := h.f.Space().Read(q.SQSlotAddr(i), buf); err != nil {
			continue
		}
		wqe, err := DecodeWQE(buf)
		if err != nil {
			continue
		}
		h.stats.FlushedWQEs++
		q.SendCQ.push(CQE{Opcode: wqe.Opcode, WRID: wqe.WRID, QPN: q.QPN, Status: StatusFlushErr})
	}
	q.sqTailHW = start
	for i := q.rqHeadHW; i < q.rqTailHW; i++ {
		buf := make([]byte, RecvWQEBytes)
		if err := h.f.Space().Read(q.RQSlotAddr(i), buf); err != nil {
			continue
		}
		rwqe, err := DecodeRecvWQE(buf)
		if err != nil {
			continue
		}
		h.stats.FlushedWQEs++
		q.RecvCQ.push(CQE{WRID: rwqe.WRID, QPN: q.QPN, Status: StatusFlushErr})
	}
	q.rqHeadHW = q.rqTailHW
}

// ConnectQPs walks both QPs of an RC connection through INIT/RTR to RTS
// and starts their send engines (and, under the reliability protocol,
// their retransmission timers).
func ConnectQPs(a, b *QP) {
	if a.state != StateReset || b.state != StateReset {
		panic("ibsim: QP already connected")
	}
	a.remoteQPN, b.remoteQPN = b.QPN, a.QPN
	for _, q := range []*QP{a, b} {
		mustModify(q, StateInit)
		mustModify(q, StateRTR)
		mustModify(q, StateRTS)
	}
	for _, q := range []*QP{a, b} {
		q.sq.At(q.hca.e.Now(), (*QP).sqPoll)
	}
	for _, q := range []*QP{a, b} {
		if q.rel != nil {
			q.rel.Start()
		}
	}
}

func mustModify(q *QP, s QPState) {
	if err := q.ModifyQP(s); err != nil {
		panic(err)
	}
}

// ---- doorbell MMIO ----

type dbTarget HCA

func (dt *dbTarget) MMIOWrite(addr memspace.Addr, data []byte) {
	h := (*HCA)(dt)
	if len(data) < 8 {
		panic(fmt.Sprintf("ibsim: %s: short doorbell write", h.cfg.Name))
	}
	v := binary.LittleEndian.Uint64(data)
	qpn := uint32(v >> 32)
	idx := int(uint32(v))
	qp, ok := h.qps[qpn]
	if !ok {
		panic(fmt.Sprintf("ibsim: %s: doorbell for unknown QP %d", h.cfg.Name, qpn))
	}
	switch uint64(addr - h.bar.Base) {
	case DoorbellSQ:
		if idx > qp.sqTailHW {
			qp.sqTailHW = idx
			h.e.Metric(h.cfg.Name, "sq_backlog", float64(qp.sqTailHW-qp.sqHeadHW))
			qp.doorbell.Broadcast()
		}
	case DoorbellRQ:
		if idx > qp.rqTailHW {
			qp.rqTailHW = idx
		}
	default:
		panic(fmt.Sprintf("ibsim: %s: write to unknown register +%#x", h.cfg.Name, uint64(addr-h.bar.Base)))
	}
}

func (dt *dbTarget) MMIORead(addr memspace.Addr, data []byte) {
	for i := range data {
		data[i] = 0
	}
}

// ---- send engine ----
//
// The HCA's send and receive engines are fixed-function pipelines, so
// they run as engine callbacks rather than processes. Every stage
// schedules its continuation with the At/After a process would have
// slept with, in the same order, so the event stream is the same one a
// process per stage would produce.

// sqPoll is the QP's send engine: it waits for a doorbell, then
// batch-reads descriptors (from host or GPU memory — the location drives
// the paper's Table II comparison) and executes them one per ProcessTime.
func (q *QP) sqPoll() {
	h := q.hca
	if q.sqHeadHW >= q.sqTailHW {
		q.doorbell.WaitFunc(q.sq.Then((*QP).sqPoll))
		return
	}
	batch := q.sqTailHW - q.sqHeadHW
	if batch > h.cfg.WQEFetchBatch {
		batch = h.cfg.WQEFetchBatch
	}
	// Never read across the ring wrap in one burst.
	slot := q.sqHeadHW % q.SQEntries
	if slot+batch > q.SQEntries {
		batch = q.SQEntries - slot
	}
	q.fetching = batch
	if h.e.Observing() {
		q.sqSpan = h.e.SpanOpen(h.cfg.Name, "wqe.fetch", sim.Attr{Key: "batch", Val: int64(batch)})
	}
	h.dmaSlots.AcquireFunc(q.sq.Then((*QP).sqFetch))
}

// sqFetch reads the batch with a DMA context held. The descriptors are
// decoded (and copied out) before the next batch reuses the buffer.
func (q *QP) sqFetch() {
	h := q.hca
	n := q.fetching * WQEBytes
	if cap(q.sqBuf) < n {
		q.sqBuf = make([]byte, n)
	}
	q.sqBuf = q.sqBuf[:n]
	q.sq.At(h.f.ReadBulkReserve(h.ep, q.SQSlotAddr(q.sqHeadHW), q.sqBuf), (*QP).sqFetched)
}

func (q *QP) sqFetched() {
	h := q.hca
	h.dmaSlots.Release()
	h.e.SpanClose(q.sqSpan)
	q.sqSpan = 0
	if h.e.Traced() {
		h.e.Tracev(h.cfg.Name, "", "%s: qp%d fetched %d WQE(s)", h.cfg.Name, q.QPN, q.fetching)
	}
	q.sqI = 0
	q.sqDecode()
}

// sqDecode processes the next fetched WQE, or retires the batch and
// polls for more.
func (q *QP) sqDecode() {
	h := q.hca
	if q.sqI == q.fetching {
		q.sqHeadHW += q.fetching
		q.fetching = 0
		h.e.Metric(h.cfg.Name, "sq_backlog", float64(q.sqTailHW-q.sqHeadHW))
		q.sqPoll()
		return
	}
	wqe, err := DecodeWQE(q.sqBuf[q.sqI*WQEBytes:])
	if err != nil {
		panic(fmt.Sprintf("ibsim: %s qp%d: %v", h.cfg.Name, q.QPN, err))
	}
	q.sqWQE = wqe
	q.sq.After(h.cfg.ProcessTime, (*QP).sqExecute)
}

func (q *QP) sqExecute() {
	wqe := q.sqWQE
	q.sqWQE = WQE{}
	q.hca.execute(q, wqe)
	q.sqI++
	q.sqDecode()
}

// execute launches one WQE's payload DMA + transmit, chained to preserve
// RC in-order delivery. On an ERR queue pair the WQE is flushed with an
// error completion instead.
func (h *HCA) execute(qp *QP, wqe WQE) {
	if qp.state != StateRTS {
		h.stats.FlushedWQEs++
		qp.SendCQ.push(CQE{
			Opcode: wqe.Opcode, WRID: wqe.WRID, QPN: qp.QPN, Status: StatusFlushErr,
		})
		return
	}
	op := h.newTxOp()
	op.qp, op.wqe = qp, wqe
	// The op is referenced by its own run and by the ordering chain: as
	// the QP's last sender now, as its successor's predecessor later.
	op.prev, qp.lastSent, op.refs = qp.lastSent, op, 2
	h.stats.WQEsExecuted++
	op.After(0, (*txOp).start)
}

// txOp is one WQE from its payload fetch to its transmission. Ops are
// pooled per HCA; an op is recycled when its run is over and its
// successor has passed it.
type txOp struct {
	sim.Step[*txOp]
	h      *HCA
	qp     *QP
	wqe    WQE
	data   []byte
	pl     *sim.Payload
	status int
	fetch  sim.SpanID
	prev   *txOp           // the WQE transmitted before this one, until passed
	sent   *sim.Completion // resolves when this WQE has been transmitted
	refs   int
}

func (h *HCA) newTxOp() *txOp {
	if k := len(h.txFree); k > 0 {
		op := h.txFree[k-1]
		h.txFree = h.txFree[:k-1]
		return op
	}
	op := &txOp{h: h, sent: sim.NewCompletion(h.e)}
	op.Init(h.e, op)
	return op
}

// unref drops one reference; the last recycles the op.
func (op *txOp) unref() {
	if op.refs--; op.refs > 0 {
		return
	}
	h := op.h
	op.sent.Reset()
	*op = txOp{Step: op.Step, h: h, sent: op.sent}
	h.txFree = append(h.txFree, op)
}

// start checks the local key and fetches the payload, if there is one.
func (op *txOp) start() {
	h, wqe := op.h, op.wqe
	op.status = StatusOK
	switch {
	case wqe.Flags&FlagInline != 0:
		// Inline payload travels in the descriptor itself: no DMA.
		op.data = wqe.Inline
	case wqe.Opcode == OpRDMARead:
		// Reads carry no payload; validate the landing buffer now.
		if _, ok := h.lookupLKey(wqe.LKey, wqe.LAddr, wqe.Length); !ok {
			h.stats.ProtectionErrs++
			op.status = StatusErr
		}
	case wqe.Opcode == OpAtomicFAdd:
		// Atomics carry the operand in the descriptor, no payload DMA;
		// validate the 8-byte landing buffer for the old value now.
		if _, ok := h.lookupLKey(wqe.LKey, wqe.LAddr, 8); !ok {
			h.stats.ProtectionErrs++
			op.status = StatusErr
		}
	case wqe.Length > 0:
		if _, ok := h.lookupLKey(wqe.LKey, wqe.LAddr, wqe.Length); !ok {
			h.stats.ProtectionErrs++
			op.status = StatusErr
			break
		}
		op.pl = h.e.NewPayload(wqe.Length)
		op.data = op.pl.B
		if h.e.Observing() {
			op.fetch = h.e.SpanOpen(h.cfg.Name, "dma.fetch", sim.Attr{Key: "bytes", Val: int64(wqe.Length)})
		}
		h.dmaSlots.AcquireFunc(op.Then((*txOp).fetchPayload))
		return
	}
	op.ordered()
}

func (op *txOp) fetchPayload() {
	h := op.h
	op.At(h.f.ReadBulkReserve(h.ep, memspace.Addr(op.wqe.LAddr), op.data), (*txOp).fetched)
}

func (op *txOp) fetched() {
	op.h.dmaSlots.Release()
	op.h.e.SpanClose(op.fetch)
	op.fetch = 0
	op.ordered()
}

// ordered waits until the previous WQE has been transmitted.
func (op *txOp) ordered() {
	if pr := op.prev; pr != nil {
		pr.sent.WaitFunc(op.Then((*txOp).transmit))
		return
	}
	op.transmit()
}

func (op *txOp) transmit() {
	h, qp, wqe := op.h, op.qp, op.wqe
	if pr := op.prev; pr != nil {
		op.prev = nil
		pr.unref()
	}
	defer op.unref()
	if op.status == StatusOK {
		pkt := Packet{
			Opcode: wqe.Opcode, Flags: wqe.Flags, SrcQPN: qp.QPN, DstQPN: qp.remoteQPN,
			RAddr: wqe.RAddr, RKey: wqe.RKey, Imm: wqe.Imm, WRID: wqe.WRID, Data: op.data, Buf: op.pl,
		}
		wb := h.wireBytes(len(op.data))
		if wqe.Opcode == OpRDMARead {
			pkt.LAddr = wqe.LAddr
			pkt.Data = nil
			// A read request is header-only; record the expected
			// length in RAddr-relative terms via the packet length.
			pkt.Imm = uint32(wqe.Length)
			wb = PktHeader
		}
		if wqe.Opcode == OpAtomicFAdd {
			// An atomic request is header + 8-byte operand (AtomicETH).
			pkt.LAddr = wqe.LAddr
			pkt.Data = nil
			pkt.Add = wqe.Add
			wb = PktHeader + 8
		}
		if qp.rel != nil {
			// PSNs are stamped at transmit time, after the ordering
			// chain, so PSN order equals wire order. The WQE completes
			// when the cumulative ACK (or read response) covers it.
			if qp.state != StateRTS {
				h.stats.FlushedWQEs++
				qp.SendCQ.push(CQE{Opcode: wqe.Opcode, WRID: wqe.WRID, QPN: qp.QPN, Status: StatusFlushErr})
				op.sent.Complete()
				return
			}
			qp.rel.Send(pkt, wb, wqe.Length)
		} else if _, ok := h.tx.Send(pkt, wb); !ok {
			op.pl.Release()
		}
	}
	op.sent.Complete()
	// A protection error moves the QP to ERR; later WQEs flush.
	if op.status != StatusOK {
		qp.state = StateErr
		qp.SendCQ.push(CQE{
			Opcode: wqe.Opcode, WRID: wqe.WRID, ByteLen: wqe.Length,
			QPN: qp.QPN, Status: op.status,
		})
		return
	}
	// RDMA READ and atomics complete only when the response lands (see
	// readLanded/atomicLanded). Under the reliability protocol everything
	// else completes on ACK; on the perfect wire, locally.
	if qp.rel == nil && wqe.Opcode != OpRDMARead && wqe.Opcode != OpAtomicFAdd && wqe.Flags&FlagSignaled != 0 {
		qp.SendCQ.push(CQE{
			Opcode: wqe.Opcode, WRID: wqe.WRID, ByteLen: wqe.Length,
			QPN: qp.QPN, Status: op.status,
		})
	}
}

// ---- receive engine ----

// rxEngine lands received packets one at a time, in arrival order: RDMA
// writes go straight to memory; immediate and send operations
// additionally consume a receive WQE and complete into the receive CQ.
// Its fields are the packet in process and what its stages carry across
// events.
type rxEngine struct {
	sim.Step[*rxEngine]
	h       *HCA
	pkt     Packet
	qp      *QP
	land    sim.SpanID
	deliver sim.Time
	useAddr bool          // a send lands at its receive WQE's address
	slot    memspace.Addr // the receive WQE being consumed
	wqeBuf  [RecvWQEBytes]byte
	rwqe    RecvWQE
	pl      *sim.Payload // read response payload
	buf     []byte       // atomic operand word, then its response data
}

// wake takes the next delivered packet, or waits for one.
func (r *rxEngine) wake() {
	h := r.h
	for {
		pkt, ok := h.rxIn.TryRecv()
		if !ok {
			h.rxIn.WaitFunc(r.Then((*rxEngine).wake))
			return
		}
		if h.e.Traced() {
			h.e.Tracev(h.cfg.Name, "", "%s: rx opcode %d, %dB for qp%d", h.cfg.Name, pkt.Opcode, len(pkt.Data), pkt.DstQPN)
		}
		h.stats.PacketsRx++
		if pkt.Poisoned {
			// The ICRC check rejects damaged packets before any processing;
			// the sender recovers by NAK or retransmission timeout.
			h.stats.IcrcDrops++
			continue
		}
		r.pkt = pkt
		r.After(h.cfg.RxProcessTime, (*rxEngine).process)
		return
	}
}

// done ends the packet in process and moves on to the next one.
func (r *rxEngine) done() {
	*r = rxEngine{Step: r.Step, h: r.h}
	r.wake()
}

func (r *rxEngine) process() {
	h, pkt := r.h, r.pkt
	qp, ok := h.qps[pkt.DstQPN]
	if !ok {
		panic(fmt.Sprintf("ibsim: %s: packet for unknown QP %d", h.cfg.Name, pkt.DstQPN))
	}
	r.qp = qp
	if qp.rel != nil {
		switch pkt.Opcode {
		case opAck:
			qp.rel.RecvAck(pkt.PSN)
			r.done()
			return
		case opNak:
			qp.rel.RecvNak(pkt.PSN)
			r.done()
			return
		case opRnrNak:
			h.handleRnrNak(qp, pkt)
			r.done()
			return
		}
	}
	if qp.state != StateRTS && qp.state != StateRTR {
		h.stats.DroppedOnErrQP++
		r.done()
		return
	}
	if qp.rel != nil && !isResponse(pkt.Opcode) && !h.responderAdmit(qp, pkt) {
		r.done()
		return
	}
	switch pkt.Opcode {
	case OpRDMAWrite, OpRDMAWriteImm:
		if _, ok := h.lookupRKey(pkt.RKey, pkt.RAddr, len(pkt.Data)); !ok {
			h.stats.ProtectionErrs++
			pkt.Buf.Release()
			r.done()
			return
		}
		if len(pkt.Data) > 0 {
			r.openLand(len(pkt.Data))
			r.write(pkt.RAddr, pkt.Data, pkt.Buf, (*rxEngine).writeLanded)
			return
		}
		r.writeLanded()
	case OpSend:
		r.useAddr = true
		r.completeReceive()
	case OpRDMARead:
		r.serveRead()
	case OpAtomicFAdd:
		r.serveAtomic()
	case opReadResp:
		r.completeReadResp()
	case opAtomicResp:
		r.completeAtomicResp()
	case opRemAccessNak:
		h.remoteAccessErr(qp, pkt)
		r.done()
	default:
		panic(fmt.Sprintf("ibsim: %s: bad opcode %d", h.cfg.Name, pkt.Opcode))
	}
}

// isResponse reports whether an opcode answers a request rather than
// carrying one: responses bypass the responder's PSN admission.
func isResponse(op int) bool {
	return op == opReadResp || op == opAtomicResp || op == opRemAccessNak
}

// openLand opens the "complete" span over a landing write.
func (r *rxEngine) openLand(n int) {
	if r.h.e.Observing() {
		r.land = r.h.e.SpanOpen(r.h.cfg.Name, "complete", sim.Attr{Key: "bytes", Val: int64(n)})
	}
}

// write lands data at addr; the engine stays busy until the write has
// left the HCA, then runs next.
func (r *rxEngine) write(addr uint64, data []byte, pl *sim.Payload, next func(*rxEngine)) {
	sent, deliver := r.h.f.WritePayloadReserve(r.h.ep, memspace.Addr(addr), data, pl)
	r.deliver = deliver
	r.At(sent, next)
}

func (r *rxEngine) writeLanded() {
	r.h.e.SpanCloseAt(r.land, r.deliver)
	if r.pkt.Opcode == OpRDMAWriteImm {
		r.completeReceive()
		return
	}
	r.done()
}

// serveRead answers a remote read: fetch local memory (the responder-side
// DMA pays the P2P read path when the region is GPU memory) and return
// the data.
func (r *rxEngine) serveRead() {
	h, pkt := r.h, r.pkt
	length := int(pkt.Imm)
	if _, ok := h.lookupRKey(pkt.RKey, pkt.RAddr, length); !ok {
		h.refuse(r.qp, pkt)
		r.done()
		return
	}
	r.pl = h.e.NewPayload(length)
	h.dmaSlots.AcquireFunc(r.Then((*rxEngine).readFetch))
}

func (r *rxEngine) readFetch() {
	r.At(r.h.f.ReadBulkReserve(r.h.ep, memspace.Addr(r.pkt.RAddr), r.pl.B), (*rxEngine).readServed)
}

func (r *rxEngine) readServed() {
	h, pkt, pl := r.h, r.pkt, r.pl
	h.dmaSlots.Release()
	h.stats.ReadsServed++
	// The response echoes the request PSN: under the reliability protocol
	// it doubles as a cumulative ACK through that PSN. It is never
	// retransmitted (a lost one is re-served for the replayed request),
	// so its single in-flight copy owns the payload.
	if _, ok := h.tx.Send(Packet{
		Opcode: opReadResp, Flags: pkt.Flags, SrcQPN: r.qp.QPN, DstQPN: pkt.SrcQPN,
		LAddr: pkt.LAddr, WRID: pkt.WRID, Data: pl.B, Buf: pl, PSN: pkt.PSN,
	}, h.wireBytes(len(pl.B))); !ok {
		pl.Release()
	}
	r.done()
}

// serveAtomic answers a remote fetch-and-add: an atomic read-modify-write
// of one 8-byte word through the responder's DMA engine, returning the
// pre-add value. Unlike reads, atomics are not idempotent, so under the
// reliability protocol the response is cached for duplicate-request replay
// (responderAdmit must not re-execute the add). Verbs permits one
// outstanding atomic per QP, so a one-deep cache is exact.
func (r *rxEngine) serveAtomic() {
	h, pkt := r.h, r.pkt
	if _, ok := h.lookupRKey(pkt.RKey, pkt.RAddr, 8); !ok {
		h.refuse(r.qp, pkt)
		r.done()
		return
	}
	r.buf = make([]byte, 8)
	h.dmaSlots.AcquireFunc(r.Then((*rxEngine).atomicFetch))
}

func (r *rxEngine) atomicFetch() {
	r.At(r.h.f.ReadBulkReserve(r.h.ep, memspace.Addr(r.pkt.RAddr), r.buf), (*rxEngine).atomicAdd)
}

func (r *rxEngine) atomicAdd() {
	sum := make([]byte, 8)
	binary.LittleEndian.PutUint64(sum, binary.LittleEndian.Uint64(r.buf)+r.pkt.Add)
	sent, _ := r.h.f.WritePayloadReserve(r.h.ep, memspace.Addr(r.pkt.RAddr), sum, nil)
	r.At(sent, (*rxEngine).atomicServed)
}

func (r *rxEngine) atomicServed() {
	h, qp, pkt := r.h, r.qp, r.pkt
	h.dmaSlots.Release()
	h.stats.AtomicsServed++
	resp := Packet{
		Opcode: opAtomicResp, Flags: pkt.Flags, SrcQPN: qp.QPN, DstQPN: pkt.SrcQPN,
		LAddr: pkt.LAddr, WRID: pkt.WRID, Data: r.buf, PSN: pkt.PSN,
	}
	if qp.rel != nil {
		qp.rel.cacheAtomic(resp, h.wireBytes(8))
	}
	h.tx.Send(resp, h.wireBytes(8))
	r.done()
}

// refuse answers a read or atomic whose rkey check failed with a
// remote-access NAK carrying the request's opcode (in Imm) and WRID.
// Under the reliability protocol a refused atomic is cached like a
// response, so a replayed request is refused again instead of acked.
func (h *HCA) refuse(qp *QP, pkt Packet) {
	h.stats.ProtectionErrs++
	nak := Packet{
		Opcode: opRemAccessNak, SrcQPN: qp.QPN, DstQPN: pkt.SrcQPN,
		WRID: pkt.WRID, Imm: uint32(pkt.Opcode), PSN: pkt.PSN,
	}
	if qp.rel != nil && pkt.Opcode == OpAtomicFAdd {
		qp.rel.cacheAtomic(nak, PktHeader)
	}
	h.tx.Send(nak, PktHeader)
}

// remoteAccessErr completes a request the responder refused with
// StatusRemAccessErr and moves the QP to ERR, flushing the rest.
func (h *HCA) remoteAccessErr(qp *QP, pkt Packet) {
	if qp.rel != nil {
		// The NAK acknowledges every request before the refused one.
		qp.rel.Release(pkt.PSN)
		h.failQP(qp, StatusRemAccessErr)
		return
	}
	qp.SendCQ.push(CQE{Opcode: int(pkt.Imm), WRID: pkt.WRID, QPN: qp.QPN, Status: StatusRemAccessErr})
	qp.state = StateErr
	qp.flush()
}

// completeAtomicResp lands the pre-add value at the origin and completes
// the atomic WQE into the send CQ. Like a read response, it doubles as a
// cumulative ACK under the reliability protocol.
func (r *rxEngine) completeAtomicResp() {
	if r.qp.rel != nil {
		r.qp.rel.Release(r.pkt.PSN + 1)
	}
	r.openLand(len(r.pkt.Data))
	r.write(r.pkt.LAddr, r.pkt.Data, nil, (*rxEngine).responseLanded)
}

// completeReadResp lands read data at the origin and completes the read
// WQE into the send CQ.
func (r *rxEngine) completeReadResp() {
	if r.qp.rel != nil {
		// The response acknowledges everything up to and including the
		// request PSN; the read's own CQE is pushed below, so its unacked
		// entry releases silently.
		r.qp.rel.Release(r.pkt.PSN + 1)
	}
	if len(r.pkt.Data) == 0 {
		r.responseLanded()
		return
	}
	r.openLand(len(r.pkt.Data))
	r.write(r.pkt.LAddr, r.pkt.Data, r.pkt.Buf, (*rxEngine).responseLanded)
}

func (r *rxEngine) responseLanded() {
	pkt := r.pkt
	r.h.e.SpanCloseAt(r.land, r.deliver)
	if pkt.Flags&FlagSignaled != 0 {
		op := OpRDMARead
		if pkt.Opcode == opAtomicResp {
			op = OpAtomicFAdd
		}
		r.qp.SendCQ.push(CQE{
			Opcode: op, WRID: pkt.WRID, ByteLen: len(pkt.Data),
			QPN: r.qp.QPN, Status: StatusOK,
		})
	}
	r.done()
}

// completeReceive consumes one recv WQE. useAddr selects whether the
// payload lands at the recv WQE's address (send) or was already written
// via RETH (write-with-immediate, where the recv address may be zero —
// §IV-A of the paper).
func (r *rxEngine) completeReceive() {
	qp := r.qp
	if qp.rqHeadHW >= qp.rqTailHW {
		// No posted receive: the RC transport would RNR-NAK; the paper
		// says "the communication fails".
		r.h.stats.RNRDrops++
		r.done()
		return
	}
	r.slot = qp.RQSlotAddr(qp.rqHeadHW)
	qp.rqHeadHW++
	// Receive WQEs are prefetched into the HCA's descriptor cache ahead
	// of packet arrival; charge only the cache access, not a PCIe trip.
	r.After(100*sim.Nanosecond, (*rxEngine).recvFetched)
}

func (r *rxEngine) recvFetched() {
	h, qp, pkt := r.h, r.qp, r.pkt
	if err := h.f.Space().Read(r.slot, r.wqeBuf[:]); err != nil {
		panic(fmt.Sprintf("ibsim: %s: rq fetch: %v", h.cfg.Name, err))
	}
	rwqe, err := DecodeRecvWQE(r.wqeBuf[:])
	if err != nil {
		panic(fmt.Sprintf("ibsim: %s qp%d: %v", h.cfg.Name, qp.QPN, err))
	}
	r.rwqe = rwqe
	if r.useAddr && len(pkt.Data) > 0 {
		if _, ok := h.lookupLKey(rwqe.LKey, rwqe.Addr, len(pkt.Data)); !ok {
			h.stats.ProtectionErrs++
			qp.RecvCQ.push(CQE{Opcode: pkt.Opcode, WRID: rwqe.WRID, QPN: qp.QPN, Status: StatusErr})
			pkt.Buf.Release()
			r.done()
			return
		}
		r.write(rwqe.Addr, pkt.Data, pkt.Buf, (*rxEngine).received)
		return
	}
	r.received()
}

func (r *rxEngine) received() {
	pkt := r.pkt
	r.qp.RecvCQ.push(CQE{
		Opcode: pkt.Opcode, WRID: r.rwqe.WRID, ByteLen: len(pkt.Data),
		Imm: pkt.Imm, QPN: r.qp.QPN, Status: StatusOK,
	})
	r.done()
}
