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
	e.Spawn(cfg.Name+".requester", n.requesterLoop)
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

// AttachWire sets the transmit link and starts the receive loop on rx.
func (n *NIC) AttachWire(tx, rx wire.Conduit[Packet]) {
	n.tx = tx
	n.e.Spawn(n.cfg.Name+".rx", func(p *sim.Proc) {
		for {
			pkt := rx.Recv(p)
			if n.rel != nil && !n.linkAdmit(pkt) {
				continue
			}
			n.dispatch(pkt)
		}
	})
	if n.rel != nil {
		n.e.Spawn(n.cfg.Name+".retx", n.rel.Run)
		n.e.Spawn(n.cfg.Name+".watchdog", n.respWatchdog)
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
	buf := make([]byte, NotifBytes)
	binary.LittleEndian.PutUint64(buf[0:], EncodeErrNotif(ClassRequester, size))
	n.notifSpan(n.f.PostedWrite(n.ep, addr, buf), size)
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
	buf := make([]byte, NotifBytes)
	binary.LittleEndian.PutUint64(buf[0:], EncodeTimeoutNotif(ClassCompleter, size))
	binary.LittleEndian.PutUint64(buf[8:], cookie)
	n.notifSpan(n.f.PostedWrite(n.ep, addr, buf), size)
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
		n.e.Tracef("%s: notification ring overflow port %d class %d", n.cfg.Name, port, class)
		return
	}
	if n.e.Trace != nil {
		n.e.Tracef("%s: notification class %d port %d (size %d)", n.cfg.Name, class, port, size)
	}
	buf := make([]byte, NotifBytes)
	binary.LittleEndian.PutUint64(buf[0:], EncodeNotif(class, size))
	binary.LittleEndian.PutUint64(buf[8:], cookie)
	n.notifSpan(n.f.PostedWrite(n.ep, addr, buf), size)
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

// requesterLoop decodes WRs in order; DMA and transmission fan out to
// bounded worker contexts so back-to-back small WRs pipeline (the paper's
// message-rate experiments depend on this).
func (n *NIC) requesterLoop(p *sim.Proc) {
	for {
		wr := n.reqQ.Recv(p)
		n.e.Metric(n.cfg.Name, "reqq", float64(n.reqQ.Len()))
		if n.e.Trace != nil {
			n.e.Tracef("%s: requester decodes WR (cmd=%d size=%d port=%d)", n.cfg.Name, wr.Cmd, wr.Size, wr.Port)
		}
		var decode sim.SpanID
		if n.e.Observing() {
			decode = n.e.SpanOpen(n.cfg.Name, "wr.decode", sim.Attr{Key: "cmd", Val: int64(wr.Cmd)})
		}
		p.Sleep(n.cyc(n.cfg.ReqCycles))
		n.e.SpanClose(decode)
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
		n.e.Spawn(n.cfg.Name+".req.dma", func(wp *sim.Proc) {
			n.txSlots.Acquire(wp)
			n.dmaInUse++
			n.e.Metric(n.cfg.Name, "dma_inflight", float64(n.dmaInUse))
			defer func() {
				n.dmaInUse--
				n.e.Metric(n.cfg.Name, "dma_inflight", float64(n.dmaInUse))
				n.txSlots.Release()
			}()
			switch wr.Cmd {
			case CmdPut:
				n.sendPut(wp, wr, peer)
			case CmdGet:
				n.sendGetReq(wp, wr, peer)
			case CmdImmPut:
				n.sendImmPut(wp, wr, peer)
			case CmdFetchAdd:
				n.sendAtomic(wp, wr, peer)
			}
			// The requester notification signals that the transfer has
			// been started and the WR slot is free for the next request —
			// it is written once the source data has left host/GPU memory.
			if wr.Flags&FlagReqNotif != 0 {
				n.writeNotif(wr.Port, ClassRequester, wr.Size, uint64(wr.SrcNLA))
			}
		})
	}
}

// sendPut streams a put cut-through: the DMA read from source memory,
// the FPGA datapath and the wire serialization all overlap; the packet
// reaches the cable no earlier than the data has been pulled.
func (n *NIC) sendPut(p *sim.Proc, wr WR, peer int) {
	src, err := n.atu.Translate(NLA(wr.SrcNLA), wr.Size)
	if err != nil {
		// Bad source NLA: the RMA unit reports the failure through an
		// error notification rather than transferring anything.
		n.stats.TranslationErrs++
		n.writeErrNotif(wr.Port, wr.Size)
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
	ready := readDone
	if dpDone > ready {
		ready = dpDone
	}
	if n.e.Trace != nil {
		n.e.Tracef("%s: put payload pulled, %dB to wire", n.cfg.Name, wr.Size)
	}
	pkt := Packet{
		Kind: CmdPut, DstPort: peer, OriginPort: wr.Port,
		Flags: wr.Flags, Size: wr.Size, DstNLA: NLA(wr.DstNLA), Data: pl.B, Buf: pl,
	}
	if n.rel == nil {
		if _, ok := n.tx.SendAfter(pkt, wr.Size+PktHeader, ready); !ok {
			pl.Release()
		}
		// The DMA context stays busy until the data has left local memory.
		p.SleepUntil(ready)
	} else {
		// Store-and-forward under reliability: the packet is sequenced and
		// buffered for go-back-N replay only once its payload is in hand.
		p.SleepUntil(n.inOrder(ready))
		n.xmit(pkt, wr.Size+PktHeader)
	}
	n.stats.PutsSent++
}

func (n *NIC) sendGetReq(p *sim.Proc, wr WR, peer int) {
	p.SleepUntil(n.inOrder(n.datapath.Reserve(PktHeader)))
	n.xmit(Packet{
		Kind: CmdGet, DstPort: peer, OriginPort: wr.Port,
		Flags: wr.Flags, Size: wr.Size, SrcNLA: NLA(wr.SrcNLA), DstNLA: NLA(wr.DstNLA),
	}, PktHeader)
	n.stats.GetsSent++
}

// sendImmPut transmits an immediate put: the payload came with the WR,
// so no source DMA read happens at all.
func (n *NIC) sendImmPut(p *sim.Proc, wr WR, peer int) {
	data := make([]byte, wr.Size)
	for i := 0; i < wr.Size; i++ {
		data[i] = byte(wr.SrcNLA >> (8 * uint(i)))
	}
	p.SleepUntil(n.inOrder(n.datapath.Reserve(wr.Size + PktHeader)))
	n.xmit(Packet{
		Kind: CmdPut, DstPort: peer, OriginPort: wr.Port,
		Flags: wr.Flags, Size: wr.Size, DstNLA: NLA(wr.DstNLA), Data: data,
	}, wr.Size+PktHeader)
	n.stats.ImmPutsSent++
}

// sendAtomic transmits a fetch-and-add request; the operand travels in
// the WR's source-NLA word.
func (n *NIC) sendAtomic(p *sim.Proc, wr WR, peer int) {
	p.SleepUntil(n.inOrder(n.datapath.Reserve(PktHeader)))
	n.xmit(Packet{
		Kind: pktAtomic, DstPort: peer, OriginPort: wr.Port,
		Flags: wr.Flags, Size: 8, SrcNLA: NLA(wr.SrcNLA), DstNLA: NLA(wr.DstNLA),
	}, PktHeader)
}

// dispatch routes one received packet to a bounded worker.
func (n *NIC) dispatch(pkt Packet) {
	n.e.Spawn(n.cfg.Name+".rx.work", func(p *sim.Proc) {
		n.rxSlots.Acquire(p)
		defer n.rxSlots.Release()
		switch pkt.Kind {
		case CmdPut:
			n.completePut(p, pkt)
		case CmdGet:
			n.serveGet(p, pkt)
		case pktGetResp:
			n.completeGetResp(p, pkt)
		case pktAtomic:
			n.serveAtomic(p, pkt)
		case pktAtomicResp:
			// The previous value arrives in the completer notification's
			// second word — no memory write at the origin.
			p.Sleep(n.cyc(n.cfg.CompCycles))
			if pkt.Flags&FlagCompNotif != 0 && n.settleResponse(pkt.DstPort) {
				n.writeNotif(pkt.DstPort, ClassCompleter, 8, uint64(pkt.SrcNLA))
			}
		default:
			panic(fmt.Sprintf("extoll: %s: bad packet kind %d", n.cfg.Name, pkt.Kind))
		}
	})
}

// completePut lands a put's payload and notifies the completer ring.
func (n *NIC) completePut(p *sim.Proc, pkt Packet) {
	if n.e.Trace != nil {
		n.e.Tracef("%s: completer lands %dB put on port %d", n.cfg.Name, pkt.Size, pkt.DstPort)
	}
	var land sim.SpanID
	if n.e.Observing() {
		land = n.e.SpanOpen(n.cfg.Name, "complete", sim.Attr{Key: "bytes", Val: int64(pkt.Size)})
	}
	p.Sleep(n.cyc(n.cfg.CompCycles))
	dst, err := n.atu.Translate(pkt.DstNLA, pkt.Size)
	if err != nil {
		// Bad destination NLA at the sink: drop the payload and record
		// the protection failure.
		n.stats.TranslationErrs++
		n.e.SpanClose(land)
		pkt.Buf.Release()
		return
	}
	p.SleepUntil(n.datapath.Reserve(pkt.Size))
	n.e.SpanCloseAt(land, n.f.WritePayload(p, n.ep, dst, pkt.Data, pkt.Buf))
	if pkt.Flags&FlagCompNotif != 0 {
		n.writeNotif(pkt.DstPort, ClassCompleter, pkt.Size, uint64(pkt.DstNLA))
	}
	n.stats.PutsCompleted++
}

// serveGet reads local memory on behalf of a remote get and responds.
func (n *NIC) serveGet(p *sim.Proc, pkt Packet) {
	p.Sleep(n.cyc(n.cfg.CompCycles) + n.cyc(n.cfg.RespCycles))
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
	dpDone := n.datapath.Reserve(pkt.Size + PktHeader)
	ready := readDone
	if dpDone > ready {
		ready = dpDone
	}
	resp := Packet{
		Kind: pktGetResp, DstPort: pkt.OriginPort, OriginPort: pkt.DstPort,
		Flags: pkt.Flags, Size: pkt.Size, DstNLA: pkt.DstNLA, Data: pl.B, Buf: pl,
	}
	if n.rel == nil {
		if _, ok := n.tx.SendAfter(resp, pkt.Size+PktHeader, ready); !ok {
			pl.Release()
		}
		p.SleepUntil(ready)
	} else {
		p.SleepUntil(ready)
		n.xmit(resp, pkt.Size+PktHeader)
	}
	if pkt.Flags&FlagRespNotif != 0 {
		n.writeNotif(pkt.DstPort, ClassResponder, pkt.Size, uint64(pkt.SrcNLA))
	}
	n.stats.GetReqsServed++
}

// serveAtomic performs a remote fetch-and-add: an atomic read-modify-
// write on the target word (which may live in GPU memory — the same P2P
// path as everything else), then a response carrying the old value.
func (n *NIC) serveAtomic(p *sim.Proc, pkt Packet) {
	p.Sleep(n.cyc(n.cfg.CompCycles) + n.cyc(n.cfg.RespCycles))
	dst, err := n.atu.Translate(pkt.DstNLA, 8)
	if err != nil {
		panic(fmt.Sprintf("extoll: %s: atomic: %v", n.cfg.Name, err))
	}
	// Read-modify-write across the fabric; the NIC holds the line for
	// the duration (single completer, so atomicity is structural).
	buf := make([]byte, 8)
	n.f.Read(p, n.ep, dst, buf)
	old := binary.LittleEndian.Uint64(buf)
	binary.LittleEndian.PutUint64(buf, old+uint64(pkt.SrcNLA))
	n.f.WriteBulk(p, n.ep, dst, buf)
	n.stats.AtomicsServed++
	n.xmit(Packet{
		Kind: pktAtomicResp, DstPort: pkt.OriginPort, OriginPort: pkt.DstPort,
		Flags: pkt.Flags, Size: 8, SrcNLA: NLA(old),
	}, PktHeader)
}

// completeGetResp lands get data at the origin and notifies its completer
// ring.
func (n *NIC) completeGetResp(p *sim.Proc, pkt Packet) {
	var land sim.SpanID
	if n.e.Observing() {
		land = n.e.SpanOpen(n.cfg.Name, "complete", sim.Attr{Key: "bytes", Val: int64(pkt.Size)})
	}
	p.Sleep(n.cyc(n.cfg.CompCycles))
	dst, err := n.atu.Translate(pkt.DstNLA, pkt.Size)
	if err != nil {
		panic(fmt.Sprintf("extoll: %s: get completer: %v", n.cfg.Name, err))
	}
	p.SleepUntil(n.datapath.Reserve(pkt.Size))
	n.e.SpanCloseAt(land, n.f.WritePayload(p, n.ep, dst, pkt.Data, pkt.Buf))
	if pkt.Flags&FlagCompNotif != 0 && n.settleResponse(pkt.DstPort) {
		n.writeNotif(pkt.DstPort, ClassCompleter, pkt.Size, uint64(pkt.DstNLA))
	}
	n.stats.GetRespsCompleted++
}
