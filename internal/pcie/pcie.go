// Package pcie models a node-local PCIe fabric at transaction level.
//
// Topology is a star: every endpoint (CPU, GPU, NIC, host memory) hangs off
// the root complex through its own link. A transaction charges
// serialization time on the initiator's egress link, a fixed one-way
// latency per side, and — for reads — the target's internal service
// latency plus response serialization on the target's egress link. This
// puts contention exactly where the paper's analysis needs it: a GPU that
// polls notification queues in system memory shares its egress link with
// the MMIO work requests it posts, and a NIC that DMA-reads GPU memory
// shares the GPU's egress link with everything else the GPU sends.
//
// The model also reproduces the documented PCIe peer-to-peer anomaly
// ([14],[15] in the paper): reads from a GPU BAR collapse in bandwidth
// once a single DMA stream exceeds a threshold (~1 MiB). That is expressed
// through a per-endpoint read-service rate that may depend on the total
// stream size.
package pcie

import (
	"fmt"

	"putget/internal/memspace"
	"putget/internal/sim"
)

// TLPHeader is the per-transaction header+framing overhead in bytes charged
// on links. (3-4 DW header plus DLLP/framing; 24 is a common effective
// figure.)
const TLPHeader = 24

// ChunkSize is the modelling granularity for bulk DMA. Real fabrics split
// at MPS/MRRS (128–512 B); we use a coarser chunk to bound event counts
// while preserving pipelining behaviour at the sizes the paper sweeps.
const ChunkSize = 4096

// Target receives MMIO side effects for BAR-mapped device registers.
// Handlers run at TLP delivery time, in engine context: they must not
// block, only mutate device state, signal, or schedule events.
type Target interface {
	// MMIOWrite handles a posted write of data at addr. data is valid
	// only until MMIOWrite returns: the bytes live in a pooled op the
	// fabric recycles, so a target decodes them and keeps none of them.
	MMIOWrite(addr memspace.Addr, data []byte)
	// MMIORead fills data from register state at addr.
	MMIORead(addr memspace.Addr, data []byte)
}

// EndpointConfig fixes an endpoint's link and service characteristics.
type EndpointConfig struct {
	// EgressRate is the endpoint→fabric link bandwidth in bytes/second.
	EgressRate float64
	// OneWay is the latency between this endpoint and the root complex.
	OneWay sim.Duration
	// ReadLatency is the internal latency to begin serving an inbound read.
	ReadLatency sim.Duration
	// ReadRate returns the inbound read service bandwidth (bytes/second)
	// for a DMA stream of the given total size. nil means "unbounded"
	// (the link is then the only limit). This is where the GPU's P2P
	// read collapse lives.
	ReadRate func(total int) float64
}

// Stats counts the transactions an endpoint initiated.
type Stats struct {
	PostedWrites uint64 // posted write TLPs (incl. bulk trains)
	Reads        uint64 // non-posted control reads
	BulkReads    uint64 // DMA read streams
	BytesWritten uint64 // payload bytes written
	BytesRead    uint64 // payload bytes read (control + bulk)
}

// Endpoint is a device port on the fabric.
type Endpoint struct {
	name string
	f    *Fabric
	cfg  EndpointConfig

	egress *sim.Server // serializes everything this endpoint sends
	stats  Stats

	lastDeliver sim.Time // latest scheduled delivery of a posted write from here

	// inbound lists the posted writes in flight to this endpoint's RAM
	// (see InboundHorizon).
	inbound []*writeOp

	// OnInboundWrite, if set, runs (in engine context) after an inbound
	// DMA/MMIO write into this endpoint's RAM region lands. The GPU uses
	// it to invalidate L2 lines so device-memory polling observes NIC
	// writes; the host CPU uses the post time to tell which of its spin
	// probes at the landing instant ran before the write.
	OnInboundWrite func(addr memspace.Addr, n int, posted sim.Time)
}

// Name returns the endpoint name.
func (ep *Endpoint) Name() string { return ep.name }

// Egress exposes the egress link server (for utilization metrics).
func (ep *Endpoint) Egress() *sim.Server { return ep.egress }

// Stats returns the transactions this endpoint initiated.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// ResetStats zeroes the transaction counters.
func (ep *Endpoint) ResetStats() { ep.stats = Stats{} }

type ownerKind int

const (
	ownRAM ownerKind = iota
	ownMMIO
)

type ownerEntry struct {
	region memspace.Region
	ep     *Endpoint
	kind   ownerKind
	target Target
}

// Faults decides the fate of bulk DMA streams crossing the fabric. Same
// shape as wire.Faults; implemented by faults.Injector.
type Faults interface {
	Judge(at sim.Time, wireBytes int) (drop, corrupt bool, extraDelay sim.Duration)
}

// Fabric is one node's PCIe hierarchy.
type Fabric struct {
	e      *sim.Engine
	space  *memspace.Space
	eps    []*Endpoint
	owners []ownerEntry

	// Fault injection on the P2P bulk path. PCIe is link-level reliable
	// (DLLP ACK/NAK replay), so drop/corrupt verdicts surface as a replay
	// delay rather than data loss.
	faults        Faults
	replayPenalty sim.Duration

	readFree  []*readOp  // idle read ops (see ReadFunc)
	writeFree []*writeOp // idle write ops (see PostedWrite)

	minOneWay sim.Duration // smallest OneWay among the endpoints
}

// SetFaults installs a fault injector on the bulk DMA path. Drop and
// corrupt verdicts each cost one replayPenalty of extra latency (the
// data-link layer retransmits); delay verdicts add directly.
func (f *Fabric) SetFaults(fi Faults, replayPenalty sim.Duration) {
	f.faults = fi
	f.replayPenalty = replayPenalty
}

// faultDelay turns an injector verdict into extra bulk-transfer latency.
func (f *Fabric) faultDelay(at sim.Time, n int) sim.Duration {
	if f.faults == nil {
		return 0
	}
	drop, corrupt, extra := f.faults.Judge(at, n)
	if drop || corrupt {
		extra += f.replayPenalty
		if f.e.Traced() {
			f.e.Tracev("pcie", "fault", "fault: pcie replay (%dB, +%v)", n, f.replayPenalty)
		}
	}
	return extra
}

// NewFabric creates a fabric over a node address space.
func NewFabric(e *sim.Engine, space *memspace.Space) *Fabric {
	return &Fabric{e: e, space: space}
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.e }

// Space returns the functional address space (zero-time backdoor access,
// used for test setup and assertions).
func (f *Fabric) Space() *memspace.Space { return f.space }

// AddEndpoint attaches a device port.
func (f *Fabric) AddEndpoint(name string, cfg EndpointConfig) *Endpoint {
	if cfg.EgressRate <= 0 {
		panic("pcie: endpoint needs a positive egress rate")
	}
	ep := &Endpoint{
		name:   name,
		f:      f,
		cfg:    cfg,
		egress: sim.NewServer(f.e, cfg.EgressRate),
	}
	if len(f.eps) == 0 || cfg.OneWay < f.minOneWay {
		f.minOneWay = cfg.OneWay
	}
	f.eps = append(f.eps, ep)
	return ep
}

// ClaimRAM declares that addresses in region are served by ep's memory-side
// (the region must already be mapped in the Space).
func (f *Fabric) ClaimRAM(ep *Endpoint, region memspace.Region) {
	f.claim(ownerEntry{region: region, ep: ep, kind: ownRAM})
}

// ClaimMMIO declares a BAR region whose accesses are handled by target.
func (f *Fabric) ClaimMMIO(ep *Endpoint, region memspace.Region, target Target) {
	f.claim(ownerEntry{region: region, ep: ep, kind: ownMMIO, target: target})
}

func (f *Fabric) claim(o ownerEntry) {
	for _, x := range f.owners {
		if x.region.Overlaps(o.region) {
			panic(fmt.Sprintf("pcie: claim %v overlaps existing claim %v", o.region, x.region))
		}
	}
	f.owners = append(f.owners, o)
}

// owner returns the claim covering a. Claims are never modified once
// made, so the pointer stays valid (and its contents current) for as long
// as an op in flight holds it, even after later claims grow the table.
func (f *Fabric) owner(a memspace.Addr) *ownerEntry {
	for i := range f.owners {
		if f.owners[i].region.Contains(a) {
			return &f.owners[i]
		}
	}
	panic(fmt.Sprintf("pcie: address %#x has no owner", uint64(a)))
}

// flight is the one-way fabric latency between two endpoints.
func flight(src, dst *Endpoint) sim.Duration {
	return src.cfg.OneWay + dst.cfg.OneWay
}

// PostedWrite sends data to addr as a posted (fire-and-forget) write. The
// caller does not block; serialization is booked on src's egress link and
// the functional effect (memory write or MMIO handler) fires at the
// returned delivery time. The write copies data when it is posted, as a
// TLP carries its bytes from the moment it is issued: the caller may
// reuse data as soon as PostedWrite returns.
//
//putget:hot
func (f *Fabric) PostedWrite(src *Endpoint, addr memspace.Addr, data []byte) sim.Time {
	o := f.owner(addr)
	w := f.newWriteOp()
	w.buf = append(w.buf[:0], data...)
	w.data = w.buf
	src.stats.PostedWrites++
	src.stats.BytesWritten += uint64(len(w.data))
	sent := src.egress.Reserve(len(w.data) + TLPHeader)
	deliver := sent.Add(flight(src, o.ep))
	if deliver < src.lastDeliver {
		// Preserve same-source ordering even across destinations with
		// different latencies; PCIe posted writes never pass each other.
		deliver = src.lastDeliver
	}
	src.lastDeliver = deliver
	if f.e.Observing() {
		// The span covers issue through delivery: the MMIO/doorbell flight
		// the paper's per-stage breakdown charges to PCIe.
		id := f.e.SpanOpen("pcie", "write",
			sim.Attr{Key: "bytes", Val: int64(len(w.data))})
		f.e.SpanCloseAt(id, deliver)
	}
	w.o, w.addr, w.posted = o, addr, f.e.Now()
	w.launch(deliver)
	return deliver
}

// writeOp is one posted write (or write train) from its post to its
// delivery. Ops are pooled per fabric, like readOp. A PostedWrite's
// bytes travel in buf, which the op keeps across reuse; a write train's
// data is the caller's payload.
type writeOp struct {
	sim.Step[*writeOp]
	f      *Fabric
	o      *ownerEntry
	addr   memspace.Addr
	data   []byte
	pl     *sim.Payload // released right after delivery; nil for none
	posted sim.Time
	at     sim.Time // delivery
	slot   int      // index in the destination's inbound list (RAM writes)
	buf    []byte   // PostedWrite's copy of its bytes
}

func (f *Fabric) newWriteOp() *writeOp {
	if k := len(f.writeFree); k > 0 {
		w := f.writeFree[k-1]
		f.writeFree = f.writeFree[:k-1]
		return w
	}
	w := &writeOp{f: f}
	w.Init(f.e, w)
	return w
}

// launch schedules the write's delivery at t and, for a write into RAM,
// lists it as in flight to the destination.
//
//putget:hot
func (w *writeOp) launch(t sim.Time) {
	w.at = t
	if w.o.kind == ownRAM {
		ep := w.o.ep
		w.slot = len(ep.inbound)
		ep.inbound = append(ep.inbound, w)
	}
	w.At(t, (*writeOp).deliver)
}

// deliver lands the write, releases its payload and recycles the op.
//
//putget:hot
func (w *writeOp) deliver() {
	f := w.f
	if w.o.kind == ownRAM {
		in := w.o.ep.inbound
		last := in[len(in)-1]
		in[w.slot], last.slot = last, w.slot
		w.o.ep.inbound = in[:len(in)-1]
	}
	f.deliverWrite(w.o, w.addr, w.data, w.posted)
	w.pl.Release()
	*w = writeOp{Step: w.Step, f: f, buf: w.buf}
	f.writeFree = append(f.writeFree, w)
}

func (f *Fabric) deliverWrite(o *ownerEntry, addr memspace.Addr, data []byte, posted sim.Time) {
	if f.e.Traced() {
		f.e.Tracev("pcie", "write", "pcie: write %dB -> %s @%#x", len(data), o.ep.name, uint64(addr))
	}
	switch o.kind {
	case ownMMIO:
		o.target.MMIOWrite(addr, data)
	case ownRAM:
		if err := f.space.Write(addr, data); err != nil {
			panic(fmt.Sprintf("pcie: inbound write: %v", err))
		}
		if o.ep.OnInboundWrite != nil {
			o.ep.OnInboundWrite(addr, len(data), posted)
		}
	}
}

// InboundHorizon returns the earliest instant at which a write that has
// not landed yet can land in ep's RAM: the first delivery among the
// posted writes in flight to it, and for a write posted from now on one
// flight from the nearest endpoint. Nothing else changes ep's memory
// through the fabric, so ep's owner may apply effects of its own early
// up to it (see gpusim's warp run-ahead).
func (f *Fabric) InboundHorizon(ep *Endpoint) sim.Time {
	h := f.e.Now().Add(f.minOneWay + ep.cfg.OneWay)
	for _, w := range ep.inbound {
		if w.at < h {
			h = w.at
		}
	}
	return h
}

// FlushWrites blocks p until every posted write previously issued by src
// has been delivered (a fence / flushing read model).
func (f *Fabric) FlushWrites(p *sim.Proc, src *Endpoint) {
	if src.lastDeliver > f.e.Now() {
		p.SleepUntil(src.lastDeliver)
	}
}

// Read performs a blocking non-posted read of len(buf) bytes at addr —
// the control-path primitive (notification polls, CQ polls, register
// reads). The initiator observes the full round trip. The data is read
// into the pooled op and copied out once it arrives, so buf is not held.
//
//putget:hot
func (f *Fabric) Read(p *sim.Proc, src *Endpoint, addr memspace.Addr, buf []byte) {
	r := f.newReadOp()
	if cap(r.mem) < len(buf) {
		r.mem = make([]byte, len(buf))
	}
	r.buf, r.owned = r.mem[:len(buf)], true
	f.startRead(r, src, addr, p.WakeFunc())
	p.Await()
	copy(buf, r.buf)
	r.free()
}

// ReadFunc is the callback form of Read: it starts the read and calls
// done from the event that completes the round trip, when buf holds the
// data.
func (f *Fabric) ReadFunc(src *Endpoint, addr memspace.Addr, buf []byte, done func()) {
	r := f.newReadOp()
	r.buf = buf
	f.startRead(r, src, addr, done)
}

func (f *Fabric) startRead(r *readOp, src *Endpoint, addr memspace.Addr, done func()) {
	o := f.owner(addr)
	src.stats.Reads++
	src.stats.BytesRead += uint64(len(r.buf))
	if f.e.Traced() {
		f.e.Tracev("pcie", "read", "pcie: %s reads %dB from %s @%#x", src.name, len(r.buf), o.ep.name, uint64(addr))
	}
	r.src, r.o, r.addr, r.done = src, o, addr, done
	// Request TLP on our egress; reads do not pass earlier writes.
	r.At(src.egress.Reserve(TLPHeader), (*readOp).flown)
}

// readOp is one non-posted read in flight: the round trip's stages run as
// engine events, each scheduled exactly when the blocking form of the
// same stage would sleep. Ops are pooled per fabric, so a read allocates
// nothing.
type readOp struct {
	sim.Step[*readOp]
	f     *Fabric
	src   *Endpoint
	o     *ownerEntry
	addr  memspace.Addr
	buf   []byte
	done  func()
	owned bool   // Read frees the op once it has copied the data out
	mem   []byte // Read's buffer, kept across reuse
}

func (f *Fabric) newReadOp() *readOp {
	if k := len(f.readFree); k > 0 {
		r := f.readFree[k-1]
		f.readFree = f.readFree[:k-1]
		return r
	}
	r := &readOp{f: f}
	r.Init(f.e, r)
	return r
}

func (r *readOp) free() {
	*r = readOp{Step: r.Step, f: r.f, mem: r.mem}
	r.f.readFree = append(r.f.readFree, r)
}

// flown: the request TLP has left src and crosses the fabric; the target
// begins serving after its internal read latency.
func (r *readOp) flown()   { r.After(flight(r.src, r.o.ep), (*readOp).arrived) }
func (r *readOp) arrived() { r.After(r.o.ep.cfg.ReadLatency, (*readOp).served) }

// served: the data is read and serialized on the target's egress, then
// flies back to src.
func (r *readOp) served() {
	r.f.serveRead(r.o, r.addr, r.buf)
	r.At(r.o.ep.egress.Reserve(len(r.buf)+TLPHeader), (*readOp).responded)
}

func (r *readOp) responded() { r.After(flight(r.o.ep, r.src), (*readOp).finish) }

// finish recycles the op, then hands the data to the initiator (a
// blocking Read frees the op itself, after it has copied the data out).
func (r *readOp) finish() {
	done := r.done
	if !r.owned {
		r.free()
	}
	done()
}

func (f *Fabric) serveRead(o *ownerEntry, addr memspace.Addr, buf []byte) {
	switch o.kind {
	case ownMMIO:
		o.target.MMIORead(addr, buf)
	case ownRAM:
		if err := f.space.Read(addr, buf); err != nil {
			panic(fmt.Sprintf("pcie: inbound read: %v", err))
		}
	}
}

// wireBytes returns the on-link size of a payload split into MRRS/MPS
// chunks, one TLP header per chunk.
func wireBytes(payload int) int {
	chunks := (payload + ChunkSize - 1) / ChunkSize
	if chunks < 1 {
		chunks = 1
	}
	return payload + chunks*TLPHeader
}

// ReadBulkReserve books a DMA read stream of len(buf) bytes without
// blocking the caller and returns the time the final data chunk reaches
// src. The functional read happens immediately; serialization is booked
// on the target's egress FIFO at the slower of its link rate and its
// (size-dependent) read-service rate — the P2P collapse. Cut-through
// engines use this to overlap the read with downstream stages.
func (f *Fabric) ReadBulkReserve(src *Endpoint, addr memspace.Addr, buf []byte) sim.Time {
	total := len(buf)
	o := f.owner(addr)
	if total == 0 {
		return f.e.Now().Add(flight(src, o.ep))
	}
	src.stats.BulkReads++
	src.stats.BytesRead += uint64(total)
	src.egress.Reserve(TLPHeader) // request TLP
	f.serveRead(o, addr, buf)
	effRate := o.ep.egress.Rate()
	if o.ep.cfg.ReadRate != nil {
		if r := o.ep.cfg.ReadRate(total); r > 0 && r < effRate {
			effRate = r
		}
	}
	// Book the whole stream on the target egress FIFO at the bottleneck
	// rate; concurrent senders through that link queue behind it.
	done := o.ep.egress.ReserveDuration(sim.BytesAt(wireBytes(total), effRate))
	done = done.Add(f.faultDelay(done, wireBytes(total)))
	return done.Add(flight(src, o.ep) + flight(o.ep, src) + o.ep.cfg.ReadLatency)
}

// WritePayloadReserve streams len(data) bytes to addr as a train of
// posted writes without blocking the caller. It books the train on src's
// egress link and returns when that link finishes serializing it (a DMA
// engine stays busy that long) and when the final chunk lands. The
// functional write and inbound-write hook fire once, at delivery. pl is
// the caller's one reference to data (nil: bytes the payload pool did not
// hand out); the write holds data until its copy into memory and releases
// pl right after. Empty data is released and returns now twice.
func (f *Fabric) WritePayloadReserve(src *Endpoint, addr memspace.Addr, data []byte, pl *sim.Payload) (sent, deliver sim.Time) {
	if len(data) == 0 {
		pl.Release()
		return f.e.Now(), f.e.Now()
	}
	o := f.owner(addr)
	src.stats.PostedWrites++
	src.stats.BytesWritten += uint64(len(data))
	sent = src.egress.Reserve(wireBytes(len(data)))
	sent = sent.Add(f.faultDelay(sent, wireBytes(len(data))))
	deliver = sent.Add(flight(src, o.ep))
	if deliver < src.lastDeliver {
		deliver = src.lastDeliver
	}
	src.lastDeliver = deliver
	w := f.newWriteOp()
	w.o, w.addr, w.data, w.pl, w.posted = o, addr, data, pl, f.e.Now()
	w.launch(deliver)
	return sent, deliver
}
