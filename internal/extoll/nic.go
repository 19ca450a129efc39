package extoll

import (
	"encoding/binary"
	"fmt"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
	"putget/internal/wire"
)

// Notification classes: each RMA sub-unit writes its own ring.
const (
	ClassRequester = 0
	ClassCompleter = 1
	ClassResponder = 2
	numClasses     = 3
)

// NotifBytes is the size of one notification (128 bits).
const NotifBytes = 16

// PageSize is the BAR requester-page size; one page per open port keeps
// parallel descriptor posts race-free (§V-A.2 of the paper).
const PageSize = 4096

// PktHeader is the wire header size per EXTOLL packet.
const PktHeader = 32

// Config fixes the RMA unit's clocking and layout.
type Config struct {
	Name string
	// ClockHz and DatapathBytes give the internal datapath: the Galibier
	// FPGA runs 157 MHz × 64 bit; the projected ASIC 700 MHz × 128 bit.
	ClockHz       float64
	DatapathBytes int
	// Engine occupancies in core cycles.
	ReqCycles  int
	CompCycles int
	RespCycles int
	// NumPorts requester pages are exposed at BARBase.
	NumPorts int
	BARBase  memspace.Addr
	// NotifBase is the kernel-allocated host-RAM area holding the
	// notification rings (the driver pre-allocates them; they cannot move
	// to GPU memory — the paper's §VI contrast with Infiniband).
	NotifBase    memspace.Addr
	NotifEntries int
	// DMAContexts bounds concurrently outstanding DMA jobs per direction.
	DMAContexts int
	// Rel enables link-level retransmission and requester response
	// timeouts (APEnet+-style FPGA retransmission logic). nil — the
	// default — assumes a perfect wire and keeps the seed's cut-through
	// fast path bit-identical.
	Rel *RelConfig
	// PCIe configures the NIC's fabric port.
	PCIe pcie.EndpointConfig
}

// Stats counts processed operations.
type Stats struct {
	PutsSent, GetsSent    uint64
	PutsCompleted         uint64
	GetReqsServed         uint64
	GetRespsCompleted     uint64
	ImmPutsSent           uint64
	AtomicsServed         uint64
	TranslationErrs       uint64
	NotificationsWritten  uint64
	NotificationOverflows uint64

	// Link-reliability counters (all zero when Config.Rel == nil).
	wire.RelStats
	ReqTimeouts uint64 // requester ops that gave up waiting for a response
	IcrcDrops   uint64 // packets discarded for a bad CRC
	LinkDowns   uint64 // links declared dead after retry exhaustion
}

// Packet is one EXTOLL network packet.
type Packet struct {
	Kind       int // CmdPut, CmdGet (request) or getResp
	DstPort    int // port at the receiving NIC
	OriginPort int // port at the WR's origin (for get responses)
	Flags      int
	Size       int
	SrcNLA     NLA
	DstNLA     NLA
	Data       []byte
	// Buf is the engine payload buffer backing Data on DMA-fetched puts
	// and get responses; nil for immediate puts. The packet holds one
	// reference until its completer write lands (see sim.Payload).
	Buf *sim.Payload
	// Seq sequences data packets when link reliability is on; link
	// ACK/NAK packets carry the next expected Seq here.
	Seq uint32
	// Poisoned marks a payload damaged in flight; the receiver's CRC
	// check discards the packet.
	Poisoned bool
}

const (
	pktGetResp    = 10
	pktAtomic     = 11
	pktAtomicResp = 12
	pktLinkAck    = 20
	pktLinkNak    = 21
)

// NIC is one EXTOLL adapter on a node fabric.
type NIC struct {
	cfg Config
	e   *sim.Engine
	f   *pcie.Fabric
	ep  *pcie.Endpoint
	bar memspace.Region
	atu *ATU

	ports    []*portState
	reqQ     *sim.Chan[WR]
	txSlots  *sim.Resource
	rxSlots  *sim.Resource
	datapath *sim.Server
	tx       wire.Conduit[Packet]
	rxIn     wire.Conduit[Packet] // delivered packets awaiting the receive stage

	// The requester decodes one WR at a time (reqWR, under reqSpan);
	// req and rx are the requester's and the receive stage's
	// continuations. txFree and rxFree hold the idle per-WR and
	// per-packet contexts.
	req, rx sim.Step[*NIC]
	reqWR   WR
	reqSpan sim.SpanID
	txFree  []*txOp
	rxFree  []*rxOp

	notifWP  [][numClasses]int
	stats    Stats
	dmaInUse int // outstanding requester DMA contexts (metric series)

	rel *linkRel // reliability state; nil on the perfect-wire fast path
}

type portState struct {
	words    [WRWords]uint64
	haveMask int
	peerPort int
	open     bool
}

// New creates an EXTOLL NIC, claims its BAR and starts the requester
// engine. Call AttachWire before posting WRs.
func New(e *sim.Engine, f *pcie.Fabric, cfg Config) *NIC {
	if cfg.NumPorts <= 0 || cfg.NotifEntries <= 0 || cfg.DMAContexts <= 0 {
		panic("extoll: invalid config")
	}
	n := &NIC{cfg: cfg, e: e, f: f, atu: NewATU()}
	n.ep = f.AddEndpoint(cfg.Name, cfg.PCIe)
	n.bar = memspace.Region{Base: cfg.BARBase, Size: uint64(cfg.NumPorts) * PageSize}
	f.ClaimMMIO(n.ep, n.bar, (*barTarget)(n))
	n.ports = make([]*portState, cfg.NumPorts)
	for i := range n.ports {
		n.ports[i] = &portState{peerPort: -1}
	}
	n.notifWP = make([][numClasses]int, cfg.NumPorts)
	n.reqQ = sim.NewChan[WR](e)
	n.txSlots = sim.NewResource(e, cfg.DMAContexts)
	n.rxSlots = sim.NewResource(e, cfg.DMAContexts)
	n.datapath = sim.NewServer(e, cfg.ClockHz*float64(cfg.DatapathBytes))
	if cfg.Rel != nil {
		n.rel = newLinkRel(n)
	}
	n.req.Init(e, n)
	n.rx.Init(e, n)
	n.req.At(e.Now(), (*NIC).reqNext)
	return n
}

// Endpoint returns the NIC's fabric port.
func (n *NIC) Endpoint() *pcie.Endpoint { return n.ep }

// BAR returns the claimed MMIO region.
func (n *NIC) BAR() memspace.Region { return n.bar }

// ATU returns the translation unit (registration happens through it).
func (n *NIC) ATU() *ATU { return n.atu }

// Stats returns a snapshot of operation counts.
func (n *NIC) Stats() Stats { return n.stats }

// cyc converts core cycles to time.
func (n *NIC) cyc(c int) sim.Duration {
	return sim.Duration(float64(c) / n.cfg.ClockHz * float64(sim.Second))
}

// OpenPort marks a port usable and returns its requester-page base.
func (n *NIC) OpenPort(port int) memspace.Addr {
	n.ports[port].open = true
	return n.PortPage(port)
}

// PortPage returns the BAR address of a port's requester page.
func (n *NIC) PortPage(port int) memspace.Addr {
	return n.bar.Base + memspace.Addr(port*PageSize)
}

// ConnectPorts wires port pa of NIC a to port pb of NIC b (a static
// circuit, as set up by the EXTOLL connection manager).
func ConnectPorts(a *NIC, pa int, b *NIC, pb int) {
	a.ports[pa].peerPort = pb
	b.ports[pb].peerPort = pa
}

// AttachWire sets the transmit link and starts the receive stage on rx.
func (n *NIC) AttachWire(tx, rx wire.Conduit[Packet]) {
	n.tx, n.rxIn = tx, rx
	n.rx.At(n.e.Now(), (*NIC).rxWake)
	if n.rel != nil {
		n.rel.Start()
		n.e.At(n.e.Now(), n.rel.watchdogF)
	}
}

// ---- notification rings ----

// ringStride is the per-ring footprint: entries plus a read-pointer slot.
func (n *NIC) ringStride() uint64 { return uint64(n.cfg.NotifEntries)*NotifBytes + 16 }

// NotifRingBase returns the host-RAM base of a (port, class) ring.
func (n *NIC) NotifRingBase(port, class int) memspace.Addr {
	idx := uint64(port*numClasses + class)
	return n.cfg.NotifBase + memspace.Addr(idx*n.ringStride())
}

// NotifEntryAddr returns the address of ring slot idx (mod ring size).
func (n *NIC) NotifEntryAddr(port, class, idx int) memspace.Addr {
	slot := idx % n.cfg.NotifEntries
	return n.NotifRingBase(port, class) + memspace.Addr(slot*NotifBytes)
}

// NotifRPAddr returns the address of the ring's software read pointer.
func (n *NIC) NotifRPAddr(port, class int) memspace.Addr {
	return n.NotifRingBase(port, class) + memspace.Addr(n.cfg.NotifEntries*NotifBytes)
}

// NotifRingArea returns the total host-RAM footprint of all rings.
func (n *NIC) NotifRingArea() uint64 {
	return uint64(n.cfg.NumPorts) * numClasses * n.ringStride()
}

// EncodeNotif packs a notification's first word.
func EncodeNotif(class, size int) uint64 {
	return 1 | uint64(class)<<1 | uint64(size)<<16
}

// notifErrBit marks an error notification (failed translation).
const notifErrBit = 1 << 8

// notifTimeoutBit refines an error notification: the operation's network
// response never arrived before the requester watchdog fired.
const notifTimeoutBit = 1 << 9

// EncodeErrNotif packs an error notification's first word.
func EncodeErrNotif(class, size int) uint64 {
	return EncodeNotif(class, size) | notifErrBit
}

// EncodeTimeoutNotif packs a response-timeout error notification's first
// word.
func EncodeTimeoutNotif(class, size int) uint64 {
	return EncodeNotif(class, size) | notifErrBit | notifTimeoutBit
}

// NotifErr reports whether a notification signals an error.
func NotifErr(word0 uint64) bool { return word0&notifErrBit != 0 }

// NotifTimeout reports whether an error notification was a response
// timeout.
func NotifTimeout(word0 uint64) bool { return word0&notifTimeoutBit != 0 }

// NotifValid reports whether a notification word 0 is a live entry.
func NotifValid(word0 uint64) bool { return word0&1 == 1 }

// NotifSize extracts the payload size from notification word 0.
func NotifSize(word0 uint64) int { return int(word0 >> 16) }

// writeErrNotif records a failed operation in the requester ring so
// software observes the failure instead of hanging.
func (n *NIC) writeErrNotif(port, size int) {
	wp := n.notifWP[port][ClassRequester]
	addr := n.NotifEntryAddr(port, ClassRequester, wp)
	if w0, err := n.f.Space().ReadU64(addr); err == nil && NotifValid(w0) {
		n.stats.NotificationOverflows++
		return
	}
	var buf [NotifBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], EncodeErrNotif(ClassRequester, size))
	n.notifSpan(n.f.PostedWrite(n.ep, addr, buf[:]), size)
	n.notifWP[port][ClassRequester] = wp + 1
	n.stats.NotificationsWritten++
}

// writeTimeoutNotif records a response timeout in the origin port's
// completer ring — where software is waiting for the response's
// completion notification — so a lost response surfaces as a consumable
// error instead of a hang.
func (n *NIC) writeTimeoutNotif(port, size int, cookie uint64) {
	wp := n.notifWP[port][ClassCompleter]
	addr := n.NotifEntryAddr(port, ClassCompleter, wp)
	if w0, err := n.f.Space().ReadU64(addr); err == nil && NotifValid(w0) {
		n.stats.NotificationOverflows++
		return
	}
	if n.e.Traced() {
		n.e.Tracev(n.cfg.Name, "fault", "fault: %s response timeout notification port %d (size %d)", n.cfg.Name, port, size)
	}
	var buf [NotifBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], EncodeTimeoutNotif(ClassCompleter, size))
	binary.LittleEndian.PutUint64(buf[8:], cookie)
	n.notifSpan(n.f.PostedWrite(n.ep, addr, buf[:]), size)
	n.notifWP[port][ClassCompleter] = wp + 1
	n.stats.NotificationsWritten++
}

// writeNotif DMA-writes a 16-byte notification into the ring (posted, so
// it lands after any payload the same engine wrote earlier).
func (n *NIC) writeNotif(port, class, size int, cookie uint64) {
	wp := n.notifWP[port][class]
	addr := n.NotifEntryAddr(port, class, wp)
	// Overflow check: the consumer zeroes entries when freeing them; a
	// still-valid slot means software fell behind (§III-A: "they have to
	// be consumed and freed before the queue overflows"). The hardware
	// drops the notification and raises an error counter.
	if w0, err := n.f.Space().ReadU64(addr); err == nil && NotifValid(w0) {
		n.stats.NotificationOverflows++
		n.e.Tracev(n.cfg.Name, "", "%s: notification ring overflow port %d class %d", n.cfg.Name, port, class)
		return
	}
	if n.e.Traced() {
		n.e.Tracev(n.cfg.Name, "", "%s: notification class %d port %d (size %d)", n.cfg.Name, class, port, size)
	}
	var buf [NotifBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], EncodeNotif(class, size))
	binary.LittleEndian.PutUint64(buf[8:], cookie)
	n.notifSpan(n.f.PostedWrite(n.ep, addr, buf[:]), size)
	n.notifWP[port][class] = wp + 1
	n.stats.NotificationsWritten++
}

// notifSpan brackets a notification's posted write as a "notif.write"
// span ending at its ring-delivery time. Opened after the write so it
// out-nests the pcie write span covering the same interval.
func (n *NIC) notifSpan(deliver sim.Time, size int) {
	if !n.e.Observing() {
		return
	}
	id := n.e.SpanOpen(n.cfg.Name, "notif.write", sim.Attr{Key: "size", Val: int64(size)})
	n.e.SpanCloseAt(id, deliver)
}

// ---- BAR (requester page) MMIO ----

// barTarget adapts NIC to pcie.Target; writes into a requester page
// assemble a WR, and the third word fires it into the requester queue.
type barTarget NIC

func (bt *barTarget) MMIOWrite(addr memspace.Addr, data []byte) {
	n := (*NIC)(bt)
	off := uint64(addr - n.bar.Base)
	port := int(off / PageSize)
	pageOff := off % PageSize
	if pageOff%8 != 0 || len(data)%8 != 0 {
		panic(fmt.Sprintf("extoll: %s: unaligned BAR write at +%#x len %d", n.cfg.Name, pageOff, len(data)))
	}
	ps := n.ports[port]
	if !ps.open {
		panic(fmt.Sprintf("extoll: %s: WR write to closed port %d", n.cfg.Name, port))
	}
	for i := 0; i*8 < len(data); i++ {
		slot := int(pageOff)/8 + i
		if slot >= WRWords {
			panic(fmt.Sprintf("extoll: %s: BAR write past WR window (slot %d)", n.cfg.Name, slot))
		}
		ps.words[slot] = binary.LittleEndian.Uint64(data[i*8:])
		ps.haveMask |= 1 << slot
	}
	if ps.haveMask == (1<<WRWords)-1 {
		wr := DecodeWR(ps.words)
		wr.Port = port
		ps.haveMask = 0
		if err := wr.Validate(); err != nil {
			panic(fmt.Sprintf("extoll: %s: %v", n.cfg.Name, err))
		}
		n.reqQ.Send(wr)
		n.e.Metric(n.cfg.Name, "reqq", float64(n.reqQ.Len()))
	}
}

func (bt *barTarget) MMIORead(addr memspace.Addr, data []byte) {
	for i := range data {
		data[i] = 0
	}
}

// ---- engines ----
//
// The RMA unit's requester, completer and responder are fixed-function
// pipelines, so they run as engine callbacks rather than processes. Every
// stage schedules its continuation with the At/After a process would
// have slept with, in the same order, so the event stream is the same
// one a process per stage would produce.

// reqNext is the requester: it takes the next WR from the queue, or waits
// for MMIOWrite to post one, and decodes it for ReqCycles. DMA and
// transmission fan out to bounded contexts (txOp) so back-to-back small
// WRs pipeline (the paper's message-rate experiments depend on this).
func (n *NIC) reqNext() {
	wr, ok := n.reqQ.TryRecv()
	if !ok {
		n.reqQ.WaitFunc(n.req.Then((*NIC).reqNext))
		return
	}
	n.e.Metric(n.cfg.Name, "reqq", float64(n.reqQ.Len()))
	if n.e.Traced() {
		n.e.Tracev(n.cfg.Name, "", "%s: requester decodes WR (cmd=%d size=%d port=%d)", n.cfg.Name, wr.Cmd, wr.Size, wr.Port)
	}
	if n.e.Observing() {
		n.reqSpan = n.e.SpanOpen(n.cfg.Name, "wr.decode", sim.Attr{Key: "cmd", Val: int64(wr.Cmd)})
	}
	n.reqWR = wr
	n.req.After(n.cyc(n.cfg.ReqCycles), (*NIC).reqDecoded)
}

// reqDecoded hands the decoded WR to a DMA context and moves on.
func (n *NIC) reqDecoded() {
	wr := n.reqWR
	n.e.SpanClose(n.reqSpan)
	n.reqSpan = 0
	peer := n.ports[wr.Port].peerPort
	if peer < 0 {
		panic(fmt.Sprintf("extoll: %s: WR on unconnected port %d", n.cfg.Name, wr.Port))
	}
	if n.rel != nil && (wr.Cmd == CmdGet || wr.Cmd == CmdFetchAdd) && wr.Flags&FlagCompNotif != 0 {
		// The op's completion surfaces as a completer notification at
		// this port; arm the response watchdog so a lost response
		// becomes a timeout-error notification instead of a hang.
		size := wr.Size
		if wr.Cmd == CmdFetchAdd {
			size = 8
		}
		n.trackResponse(wr.Port, size, uint64(wr.DstNLA))
	}
	op := n.newTxOp()
	op.wr, op.peer = wr, peer
	op.After(0, (*txOp).acquire)
	n.reqNext()
}

// txOp is one WR in a requester DMA context, from the context's
// acquisition to the requester notification. Ops are pooled per NIC, so
// a WR allocates nothing.
type txOp struct {
	sim.Step[*txOp]
	n    *NIC
	wr   WR
	peer int
	out  Packet // transmitted when the op's data is in hand (xmit)
	wb   int
	xmit bool // out still has to be transmitted
}

func (n *NIC) newTxOp() *txOp {
	if k := len(n.txFree); k > 0 {
		op := n.txFree[k-1]
		n.txFree = n.txFree[:k-1]
		return op
	}
	op := &txOp{n: n}
	op.Init(n.e, op)
	return op
}

// acquire waits for a free DMA context.
func (op *txOp) acquire() { op.n.txSlots.AcquireFunc(op.Then((*txOp).start)) }

// start pulls or builds the WR's packet and waits until it may leave.
func (op *txOp) start() {
	n, wr := op.n, op.wr
	n.dmaInUse++
	n.e.Metric(n.cfg.Name, "dma_inflight", float64(n.dmaInUse))
	switch wr.Cmd {
	case CmdPut:
		n.sendPut(op)
	case CmdGet:
		op.send(Packet{
			Kind: CmdGet, DstPort: op.peer, OriginPort: wr.Port,
			Flags: wr.Flags, Size: wr.Size, SrcNLA: NLA(wr.SrcNLA), DstNLA: NLA(wr.DstNLA),
		}, PktHeader)
	case CmdImmPut:
		// The payload came with the WR, so no source DMA read happens.
		data := make([]byte, wr.Size)
		for i := 0; i < wr.Size; i++ {
			data[i] = byte(wr.SrcNLA >> (8 * uint(i)))
		}
		op.send(Packet{
			Kind: CmdPut, DstPort: op.peer, OriginPort: wr.Port,
			Flags: wr.Flags, Size: wr.Size, DstNLA: NLA(wr.DstNLA), Data: data,
		}, wr.Size+PktHeader)
	case CmdFetchAdd:
		// The operand travels in the WR's source-NLA word.
		op.send(Packet{
			Kind: pktAtomic, DstPort: op.peer, OriginPort: wr.Port,
			Flags: wr.Flags, Size: 8, SrcNLA: NLA(wr.SrcNLA), DstNLA: NLA(wr.DstNLA),
		}, PktHeader)
	}
}

// send transmits a packet whose payload needs no DMA once the datapath
// has pushed it through, in request order.
func (op *txOp) send(pkt Packet, wb int) {
	op.out, op.wb, op.xmit = pkt, wb, true
	op.At(op.n.inOrder(op.n.datapath.Reserve(wb)), (*txOp).sent)
}

// sendPut streams a put cut-through: the DMA read from source memory,
// the FPGA datapath and the wire serialization all overlap; the packet
// reaches the cable no earlier than the data has been pulled.
func (n *NIC) sendPut(op *txOp) {
	wr := op.wr
	src, err := n.atu.Translate(NLA(wr.SrcNLA), wr.Size)
	if err != nil {
		// Bad source NLA: the RMA unit reports the failure through an
		// error notification rather than transferring anything.
		n.stats.TranslationErrs++
		n.writeErrNotif(wr.Port, wr.Size)
		op.finish()
		return
	}
	pl := n.e.NewPayload(wr.Size)
	var fetch sim.SpanID
	if n.e.Observing() {
		fetch = n.e.SpanOpen(n.cfg.Name, "dma.fetch", sim.Attr{Key: "bytes", Val: int64(wr.Size)})
	}
	readDone := n.f.ReadBulkReserve(n.ep, src, pl.B)
	n.e.SpanCloseAt(fetch, readDone)
	dpDone := n.datapath.Reserve(wr.Size + PktHeader)
	ready := max(readDone, dpDone)
	if n.e.Traced() {
		n.e.Tracev(n.cfg.Name, "", "%s: put payload pulled, %dB to wire", n.cfg.Name, wr.Size)
	}
	pkt := Packet{
		Kind: CmdPut, DstPort: op.peer, OriginPort: wr.Port,
		Flags: wr.Flags, Size: wr.Size, DstNLA: NLA(wr.DstNLA), Data: pl.B, Buf: pl,
	}
	if n.rel == nil {
		if _, ok := n.tx.SendAfter(pkt, wr.Size+PktHeader, ready); !ok {
			pl.Release()
		}
		// The DMA context stays busy until the data has left local memory.
		op.At(ready, (*txOp).sent)
		return
	}
	// Store-and-forward under reliability: the packet is sequenced and
	// buffered for go-back-N replay only once its payload is in hand.
	op.out, op.wb, op.xmit = pkt, wr.Size+PktHeader, true
	op.At(n.inOrder(ready), (*txOp).sent)
}

// sent transmits what waited for its data and counts the WR.
func (op *txOp) sent() {
	n := op.n
	if op.xmit {
		n.xmit(op.out, op.wb)
	}
	switch op.wr.Cmd {
	case CmdPut:
		n.stats.PutsSent++
	case CmdGet:
		n.stats.GetsSent++
	case CmdImmPut:
		n.stats.ImmPutsSent++
	}
	op.finish()
}

// finish writes the requester notification, which signals that the
// transfer has started and the WR slot is free for the next request
// (the source data has left host/GPU memory), then frees the context.
func (op *txOp) finish() {
	n, wr := op.n, op.wr
	if wr.Flags&FlagReqNotif != 0 {
		n.writeNotif(wr.Port, ClassRequester, wr.Size, uint64(wr.SrcNLA))
	}
	n.dmaInUse--
	n.e.Metric(n.cfg.Name, "dma_inflight", float64(n.dmaInUse))
	n.txSlots.Release()
	*op = txOp{Step: op.Step, n: n}
	n.txFree = append(n.txFree, op)
}

// rxWake is the receive stage: it runs the link checks on every packet
// delivered since it last ran and hands each to a completer/responder
// context, then waits for the next delivery.
func (n *NIC) rxWake() {
	for {
		pkt, ok := n.rxIn.TryRecv()
		if !ok {
			n.rxIn.WaitFunc(n.rx.Then((*NIC).rxWake))
			return
		}
		if n.rel != nil && !n.linkAdmit(pkt) {
			continue
		}
		op := n.newRxOp()
		op.pkt = pkt
		op.After(0, (*rxOp).acquire)
	}
}

// rxOp is one received packet in a completer/responder context. Ops are
// pooled per NIC like txOp.
type rxOp struct {
	sim.Step[*rxOp]
	n       *NIC
	pkt     Packet
	dst     memspace.Addr
	land    sim.SpanID
	deliver sim.Time
	out     Packet // the response, when it leaves after a later stage
	buf     []byte // atomic read-modify-write word
}

func (n *NIC) newRxOp() *rxOp {
	if k := len(n.rxFree); k > 0 {
		op := n.rxFree[k-1]
		n.rxFree = n.rxFree[:k-1]
		return op
	}
	op := &rxOp{n: n}
	op.Init(n.e, op)
	return op
}

// acquire waits for a free receive context.
func (op *rxOp) acquire() { op.n.rxSlots.AcquireFunc(op.Then((*rxOp).start)) }

// start routes the packet to its engine's first stage.
func (op *rxOp) start() {
	n, pkt := op.n, op.pkt
	comp := n.cyc(n.cfg.CompCycles)
	switch pkt.Kind {
	case CmdPut:
		if n.e.Traced() {
			n.e.Tracev(n.cfg.Name, "", "%s: completer lands %dB put on port %d", n.cfg.Name, pkt.Size, pkt.DstPort)
		}
		op.openLand()
		op.After(comp, (*rxOp).putTranslate)
	case CmdGet:
		op.After(comp+n.cyc(n.cfg.RespCycles), (*rxOp).serveGet)
	case pktGetResp:
		op.openLand()
		op.After(comp, (*rxOp).getRespTranslate)
	case pktAtomic:
		op.After(comp+n.cyc(n.cfg.RespCycles), (*rxOp).serveAtomic)
	case pktAtomicResp:
		// The previous value arrives in the completer notification's
		// second word — no memory write at the origin.
		op.After(comp, (*rxOp).atomicRespDone)
	default:
		panic(fmt.Sprintf("extoll: %s: bad packet kind %d", n.cfg.Name, pkt.Kind))
	}
}

// openLand opens the completer's "complete" span over a landing write.
func (op *rxOp) openLand() {
	if op.n.e.Observing() {
		op.land = op.n.e.SpanOpen(op.n.cfg.Name, "complete", sim.Attr{Key: "bytes", Val: int64(op.pkt.Size)})
	}
}

// putTranslate checks a put's destination; a bad NLA at the sink drops
// the payload and records the protection failure.
func (op *rxOp) putTranslate() {
	n, pkt := op.n, op.pkt
	dst, err := n.atu.Translate(pkt.DstNLA, pkt.Size)
	if err != nil {
		n.stats.TranslationErrs++
		n.e.SpanClose(op.land)
		pkt.Buf.Release()
		op.finish()
		return
	}
	op.dst = dst
	op.At(n.datapath.Reserve(pkt.Size), (*rxOp).putWrite)
}

func (op *rxOp) putWrite() { op.write((*rxOp).putDone) }

// putDone notifies the completer ring of a landed put.
func (op *rxOp) putDone() {
	n, pkt := op.n, op.pkt
	n.e.SpanCloseAt(op.land, op.deliver)
	if pkt.Flags&FlagCompNotif != 0 {
		n.writeNotif(pkt.DstPort, ClassCompleter, pkt.Size, uint64(pkt.DstNLA))
	}
	n.stats.PutsCompleted++
	op.finish()
}

// write lands the packet's payload at op.dst; the context stays busy
// until the write has left the NIC, then runs done.
func (op *rxOp) write(done func(*rxOp)) {
	sent, deliver := op.n.f.WritePayloadReserve(op.n.ep, op.dst, op.pkt.Data, op.pkt.Buf)
	op.deliver = deliver
	op.At(sent, done)
}

// serveGet reads local memory on behalf of a remote get and responds.
func (op *rxOp) serveGet() {
	n, pkt := op.n, op.pkt
	src, err := n.atu.Translate(pkt.SrcNLA, pkt.Size)
	if err != nil {
		panic(fmt.Sprintf("extoll: %s: responder: %v", n.cfg.Name, err))
	}
	pl := n.e.NewPayload(pkt.Size)
	var fetch sim.SpanID
	if n.e.Observing() {
		fetch = n.e.SpanOpen(n.cfg.Name, "dma.fetch", sim.Attr{Key: "bytes", Val: int64(pkt.Size)})
	}
	readDone := n.f.ReadBulkReserve(n.ep, src, pl.B)
	n.e.SpanCloseAt(fetch, readDone)
	ready := max(readDone, n.datapath.Reserve(pkt.Size+PktHeader))
	resp := Packet{
		Kind: pktGetResp, DstPort: pkt.OriginPort, OriginPort: pkt.DstPort,
		Flags: pkt.Flags, Size: pkt.Size, DstNLA: pkt.DstNLA, Data: pl.B, Buf: pl,
	}
	if n.rel == nil {
		if _, ok := n.tx.SendAfter(resp, pkt.Size+PktHeader, ready); !ok {
			pl.Release()
		}
	} else {
		op.out = resp
	}
	op.At(ready, (*rxOp).getServed)
}

func (op *rxOp) getServed() {
	n, pkt := op.n, op.pkt
	if n.rel != nil {
		n.xmit(op.out, pkt.Size+PktHeader)
	}
	if pkt.Flags&FlagRespNotif != 0 {
		n.writeNotif(pkt.DstPort, ClassResponder, pkt.Size, uint64(pkt.SrcNLA))
	}
	n.stats.GetReqsServed++
	op.finish()
}

// serveAtomic performs a remote fetch-and-add: an atomic read-modify-
// write on the target word (which may live in GPU memory — the same P2P
// path as everything else), then a response carrying the old value. The
// NIC holds the line for the duration (single completer, so atomicity is
// structural).
func (op *rxOp) serveAtomic() {
	n := op.n
	dst, err := n.atu.Translate(op.pkt.DstNLA, 8)
	if err != nil {
		panic(fmt.Sprintf("extoll: %s: atomic: %v", n.cfg.Name, err))
	}
	op.dst = dst
	op.buf = make([]byte, 8)
	n.f.ReadFunc(n.ep, dst, op.buf, op.Then((*rxOp).atomicWrite))
}

func (op *rxOp) atomicWrite() {
	pkt := op.pkt
	old := binary.LittleEndian.Uint64(op.buf)
	op.out = Packet{
		Kind: pktAtomicResp, DstPort: pkt.OriginPort, OriginPort: pkt.DstPort,
		Flags: pkt.Flags, Size: 8, SrcNLA: NLA(old),
	}
	// The write holds buf until it lands, so the op lets go of it.
	binary.LittleEndian.PutUint64(op.buf, old+uint64(pkt.SrcNLA))
	sent, _ := op.n.f.WritePayloadReserve(op.n.ep, op.dst, op.buf, nil)
	op.buf = nil
	op.At(sent, (*rxOp).atomicServed)
}

func (op *rxOp) atomicServed() {
	op.n.stats.AtomicsServed++
	op.n.xmit(op.out, PktHeader)
	op.finish()
}

func (op *rxOp) atomicRespDone() {
	n, pkt := op.n, op.pkt
	if pkt.Flags&FlagCompNotif != 0 && n.settleResponse(pkt.DstPort) {
		n.writeNotif(pkt.DstPort, ClassCompleter, 8, uint64(pkt.SrcNLA))
	}
	op.finish()
}

// getRespTranslate lands get data at the origin and notifies its
// completer ring.
func (op *rxOp) getRespTranslate() {
	n, pkt := op.n, op.pkt
	dst, err := n.atu.Translate(pkt.DstNLA, pkt.Size)
	if err != nil {
		panic(fmt.Sprintf("extoll: %s: get completer: %v", n.cfg.Name, err))
	}
	op.dst = dst
	op.At(n.datapath.Reserve(pkt.Size), (*rxOp).getRespWrite)
}

func (op *rxOp) getRespWrite() { op.write((*rxOp).getRespDone) }

func (op *rxOp) getRespDone() {
	n, pkt := op.n, op.pkt
	n.e.SpanCloseAt(op.land, op.deliver)
	if pkt.Flags&FlagCompNotif != 0 && n.settleResponse(pkt.DstPort) {
		n.writeNotif(pkt.DstPort, ClassCompleter, pkt.Size, uint64(pkt.DstNLA))
	}
	n.stats.GetRespsCompleted++
	op.finish()
}

// finish frees the receive context.
func (op *rxOp) finish() {
	n := op.n
	n.rxSlots.Release()
	*op = rxOp{Step: op.Step, n: n}
	n.rxFree = append(n.rxFree, op)
}
