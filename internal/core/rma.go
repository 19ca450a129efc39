// Package core implements the paper's contribution: the EXTOLL RMA and
// InfiniBand Verbs put/get APIs extended into the GPU domain, so that
// simulated CUDA kernels create work requests, ring doorbells and consume
// completion information without any CPU involvement — plus the host-side
// variants (host-controlled and host-assisted) the paper compares against.
//
// Every device-side function charges the instruction and memory-transaction
// costs the paper measures with performance counters; every host-side
// function charges the (much smaller) CPU costs. The same functions drive
// the latency, bandwidth, message-rate and counter experiments.
package core

import (
	"encoding/binary"
	"fmt"

	"putget/internal/cluster"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/hostsim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

// RMA is the EXTOLL put/get API bound to one node, mirroring librma with
// the GPU extensions of §III-C: the requester BAR pages and notification
// queues are mapped into the GPU address space (GPUDirect + driver patch),
// so either processor can drive them.
type RMA struct {
	Node *cluster.Node
	NIC  *extoll.NIC

	// rp holds the software read cursor per (port, class) ring. Exactly
	// one consumer drives a given ring in any experiment.
	rp map[[2]int]int
}

// NewRMA binds the API to a node's EXTOLL NIC.
func NewRMA(n *cluster.Node) *RMA {
	if n.Extoll == nil {
		panic("core: node has no EXTOLL NIC")
	}
	return &RMA{Node: n, NIC: n.Extoll, rp: map[[2]int]int{}}
}

// Register registers memory with the ATU (host or GPU device memory; the
// MMIO-translation driver patch of §III-C is always applied here).
func (r *RMA) Register(addr memspace.Addr, size uint64) extoll.NLA {
	nla, err := r.NIC.ATU().Register(addr, size)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return nla
}

// OpenPort opens an RMA port and returns its requester page address.
func (r *RMA) OpenPort(port int) memspace.Addr {
	return r.NIC.OpenPort(port)
}

// ---- device-side API (runs in GPU kernels) ----

// span opens a pipeline-stage span on the node's engine when observed;
// SpanClose/SpanCloseAt on the returned zero id is a no-op otherwise.
func (r *RMA) span(comp, kind string, size int) sim.SpanID {
	e := r.Node.E
	if !e.Observing() {
		return 0
	}
	return e.SpanOpen(comp, kind, sim.Attr{Key: "size", Val: int64(size)})
}

// DevPut creates a put work request with a single GPU thread and writes it
// word-by-word to the port's requester page: three 64-bit MMIO stores, a
// few ALU instructions for field assembly — the paper's EXTOLL fast path.
func (r *RMA) DevPut(w *gpusim.Warp, port int, src, dst extoll.NLA, size, flags int) {
	id := r.span(w.GPU().Name(), "wr.create", size)
	page := r.NIC.PortPage(port)
	w.Exec(8) // assemble word0, compute page address
	w.StSysU64(page+0, extoll.EncodeWord0(extoll.CmdPut, flags, size))
	w.StSysU64(page+8, uint64(src))
	w.StSysU64(page+16, uint64(dst))
	r.Node.E.SpanClose(id)
}

// DevPutImm creates an immediate put: up to 8 bytes of payload travel in
// the work request itself, sparing the NIC the source DMA read — the
// lowest-latency GPU-initiated transfer this fabric offers (claim 3 of
// §VI: minimal PCIe transfers for control AND data).
func (r *RMA) DevPutImm(w *gpusim.Warp, port int, value uint64, dst extoll.NLA, size, flags int) {
	page := r.NIC.PortPage(port)
	w.Exec(8)
	w.StSysU64(page+0, extoll.EncodeWord0(extoll.CmdImmPut, flags, size))
	w.StSysU64(page+8, value)
	w.StSysU64(page+16, uint64(dst))
}

// DevFetchAdd issues a remote atomic fetch-and-add on a 64-bit word. The
// previous value returns through the completer notification; consume it
// with DevWaitNotifValue.
func (r *RMA) DevFetchAdd(w *gpusim.Warp, port int, addend uint64, dst extoll.NLA) {
	page := r.NIC.PortPage(port)
	w.Exec(8)
	w.StSysU64(page+0, extoll.EncodeWord0(extoll.CmdFetchAdd, extoll.FlagCompNotif, 8))
	w.StSysU64(page+8, addend)
	w.StSysU64(page+16, uint64(dst))
}

// DevGet creates a get work request from the GPU.
func (r *RMA) DevGet(w *gpusim.Warp, port int, src, dst extoll.NLA, size, flags int) {
	id := r.span(w.GPU().Name(), "wr.create", size)
	page := r.NIC.PortPage(port)
	w.Exec(8)
	w.StSysU64(page+0, extoll.EncodeWord0(extoll.CmdGet, flags, size))
	w.StSysU64(page+8, uint64(src))
	w.StSysU64(page+16, uint64(dst))
	r.Node.E.SpanClose(id)
}

// DevPutCollective is the thread-collective descriptor write the paper's
// claims (§VI) call for: a warp builds the WR cooperatively and issues it
// as one coalesced store burst, cutting both instructions and PCIe
// transactions. Requires ≥3 active lanes.
func (r *RMA) DevPutCollective(w *gpusim.Warp, port int, src, dst extoll.NLA, size, flags int) {
	if w.Lanes < extoll.WRWords {
		panic("core: DevPutCollective needs at least 3 lanes")
	}
	id := r.span(w.GPU().Name(), "wr.create", size)
	page := r.NIC.PortPage(port)
	w.Exec(4) // each lane computes its word in parallel
	buf := wrBytes(extoll.WR{Cmd: extoll.CmdPut, Flags: flags, Size: size,
		SrcNLA: uint64(src), DstNLA: uint64(dst)})
	w.StSysCoalesced(page, buf[:])
	r.Node.E.SpanClose(id)
}

// notifQuery is the library overhead of one notification query: ring
// arithmetic, bounds checks, call frames and type dispatch of the
// notification API.
const notifQuery = 28

// notifValid is extoll.NotifValid as a spin predicate.
func notifValid(w0, _ uint64) bool { return extoll.NotifValid(w0) }

// DevTryConsumeNotif polls the (port, class) notification ring once. On a
// valid entry it consumes it the way the paper describes: read the
// 128-bit notification (2 loads), free it by zeroing (2 stores), and
// advance the ring's read pointer in the queue structure (1 store).
// Returns the notification's size field and true, or false if empty.
func (r *RMA) DevTryConsumeNotif(w *gpusim.Warp, port, class int) (int, bool) {
	w.Exec(notifQuery)
	w0 := devLd64(w, r.notifSlot(port, class)) // host ring: PCIe read; device ring: L2 access
	if !extoll.NotifValid(w0) {
		return 0, false
	}
	r.devConsume(w, port, class)
	return extoll.NotifSize(w0), true
}

// devWait spins on the (port, class) ring, one DevTryConsumeNotif probe
// and a loop branch per iteration, until a notification arrives or, when
// bounded, the deadline passes; it consumes the notification and returns
// its first word and cookie.
func (r *RMA) devWait(w *gpusim.Warp, port, class int, bounded bool, deadline sim.Time) (uint64, uint64, bool) {
	w0, ok := devSpin(w, r.notifSlot(port, class), notifQuery, notifValid, 0, bounded, deadline)
	if !ok {
		return 0, 0, false
	}
	return w0, r.devConsume(w, port, class), true
}

// devConsume is the consume step after a device probe found the entry
// at notifSlot valid, as the paper describes: read the second word of
// the 128-bit notification, free it by zeroing (2 stores), and advance
// the ring's read pointer in the queue structure (1 store). It returns
// the second word (the cookie).
func (r *RMA) devConsume(w *gpusim.Warp, port, class int) uint64 {
	key := [2]int{port, class}
	idx := r.rp[key]
	entry := r.NIC.NotifEntryAddr(port, class, idx)
	cookie := devLd64(w, entry+8) // second notification word
	w.Exec(30)                    // decode type/size/payload fields
	devSt64(w, entry, 0)          // free: reset to zero
	devSt64(w, entry+8, 0)
	rp := r.NIC.NotifRPAddr(port, class)
	if w.GPU().DevMem().Contains(rp) {
		devSt64(w, rp, uint64(idx+1))
	} else {
		w.StSysU32(rp, uint32(idx+1)) // 32-bit read-pointer update
	}
	r.rp[key] = idx + 1
	return cookie
}

// DevWaitNotifValue spins until a notification arrives and returns both
// its size and its second word.
func (r *RMA) DevWaitNotifValue(w *gpusim.Warp, port, class int) (int, uint64) {
	id := r.span(w.GPU().Name(), "poll.notif", class)
	w0, cookie, _ := r.devWait(w, port, class, false, 0)
	r.Node.E.SpanClose(id)
	return extoll.NotifSize(w0), cookie
}

// DevWaitNotif spins on the ring until a notification arrives and
// consumes it. Every probe is a system-memory read over PCIe — the
// behaviour Table I charges against the "system memory" polling approach.
func (r *RMA) DevWaitNotif(w *gpusim.Warp, port, class int) int {
	size, _ := r.DevWaitNotifValue(w, port, class)
	return size
}

// NotifResult describes a consumed notification for the bounded-wait
// variants: payload size plus the error and response-timeout flags the
// fault-tolerant fabric can set.
type NotifResult struct {
	Size    int
	Err     bool // the NIC reported a failure (translation, timeout, ...)
	Timeout bool // specifically: the op's network response never arrived
}

// DevWaitNotifTimeout spins like DevWaitNotif but gives up after
// `timeout` of virtual time, so a kernel facing a dead fabric degrades
// instead of deadlocking. ok is false when the deadline passed with no
// notification; otherwise the result carries the notification's error
// flags, which callers must check before trusting the payload.
func (r *RMA) DevWaitNotifTimeout(w *gpusim.Warp, port, class int, timeout sim.Duration) (NotifResult, bool) {
	id := r.span(w.GPU().Name(), "poll.notif", class)
	w0, _, ok := r.devWait(w, port, class, true, w.Now().Add(timeout))
	r.Node.E.SpanClose(id)
	if !ok {
		return NotifResult{}, false
	}
	return NotifResult{
		Size: extoll.NotifSize(w0), Err: extoll.NotifErr(w0), Timeout: extoll.NotifTimeout(w0),
	}, true
}

// HostWaitNotifTimeout is the CPU-side bounded wait.
func (r *RMA) HostWaitNotifTimeout(p *sim.Proc, port, class int, timeout sim.Duration) (NotifResult, bool) {
	id := r.span(r.Node.CPU.Name(), "poll.notif", class)
	w0, ok := r.Node.CPU.SpinU64Until(p, r.notifSlot(port, class), extoll.NotifValid, p.Now().Add(timeout))
	if !ok {
		r.Node.E.SpanClose(id)
		return NotifResult{}, false
	}
	r.hostConsume(p, port, class)
	r.Node.E.SpanClose(id)
	return NotifResult{
		Size: extoll.NotifSize(w0), Err: extoll.NotifErr(w0), Timeout: extoll.NotifTimeout(w0),
	}, true
}

// DevPollU64 spins on a device-memory word until it holds want — the
// paper's dev2dev-pollOnGPU approach: probes hit in L2 until the NIC's
// DMA write invalidates the sector.
func (r *RMA) DevPollU64(w *gpusim.Warp, addr memspace.Addr, want uint64) {
	w.PollGlobalU64(addr, want)
}

// ---- host-side API (runs on CPU threads) ----

// HostPut creates and posts a put WR from the CPU: descriptor assembly at
// host speed and one write-combined 24-byte MMIO burst.
func (r *RMA) HostPut(p *sim.Proc, port int, src, dst extoll.NLA, size, flags int) {
	id := r.span(r.Node.CPU.Name(), "wr.create", size)
	defer r.Node.E.SpanClose(id)
	r.hostPost(p, port, extoll.WR{Cmd: extoll.CmdPut, Flags: flags, Size: size,
		SrcNLA: uint64(src), DstNLA: uint64(dst)})
}

// HostPutImm posts an immediate put from the CPU.
func (r *RMA) HostPutImm(p *sim.Proc, port int, value uint64, dst extoll.NLA, size, flags int) {
	r.hostPost(p, port, extoll.WR{Cmd: extoll.CmdImmPut, Flags: flags, Size: size,
		SrcNLA: value, DstNLA: uint64(dst)})
}

// HostFetchAdd posts a remote fetch-and-add from the CPU and returns the
// previous value via the completer notification.
func (r *RMA) HostFetchAdd(p *sim.Proc, port int, addend uint64, dst extoll.NLA) uint64 {
	r.hostPost(p, port, extoll.WR{Cmd: extoll.CmdFetchAdd, Flags: extoll.FlagCompNotif,
		Size: 8, SrcNLA: addend, DstNLA: uint64(dst)})
	r.Node.CPU.SpinU64(p, r.notifSlot(port, extoll.ClassCompleter), extoll.NotifValid)
	return r.hostConsume(p, port, extoll.ClassCompleter)
}

// HostGet creates and posts a get WR from the CPU.
func (r *RMA) HostGet(p *sim.Proc, port int, src, dst extoll.NLA, size, flags int) {
	id := r.span(r.Node.CPU.Name(), "wr.create", size)
	defer r.Node.E.SpanClose(id)
	r.hostPost(p, port, extoll.WR{Cmd: extoll.CmdGet, Flags: flags, Size: size,
		SrcNLA: uint64(src), DstNLA: uint64(dst)})
}

// hostPost builds wr at host speed and posts it to port's requester page
// as one write-combined MMIO burst.
//
//putget:hot
func (r *RMA) hostPost(p *sim.Proc, port int, wr extoll.WR) {
	cpu := r.Node.CPU
	cpu.GenWR(p)
	buf := wrBytes(wr)
	cpu.MMIOWriteBurst(p, r.NIC.PortPage(port), buf[:])
}

// wrBytes is wr as the little-endian bytes of its words, in BAR order.
func wrBytes(wr extoll.WR) [extoll.WRBytes]byte {
	var buf [extoll.WRBytes]byte
	for i, v := range extoll.EncodeWR(wr) {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	return buf
}

// HostTryConsumeNotif polls the ring once from the CPU (cache-speed host
// memory reads) and consumes a valid entry.
func (r *RMA) HostTryConsumeNotif(p *sim.Proc, port, class int) (int, bool) {
	size, _, ok := r.HostTryConsumeNotifValue(p, port, class)
	return size, ok
}

// HostTryConsumeNotifValue is HostTryConsumeNotif with the cookie word.
func (r *RMA) HostTryConsumeNotifValue(p *sim.Proc, port, class int) (int, uint64, bool) {
	w0 := r.Node.CPU.ReadU64(p, r.notifSlot(port, class))
	if !extoll.NotifValid(w0) {
		return 0, 0, false
	}
	return extoll.NotifSize(w0), r.hostConsume(p, port, class), true
}

// notifSlot is the ring entry the next consume probes.
func (r *RMA) notifSlot(port, class int) memspace.Addr {
	return r.NIC.NotifEntryAddr(port, class, r.rp[[2]int{port, class}])
}

// hostConsume is the consume step after a host probe found the entry at
// notifSlot valid: it reads the cookie word, frees the entry and
// advances the read pointer.
func (r *RMA) hostConsume(p *sim.Proc, port, class int) uint64 {
	cpu := r.Node.CPU
	key := [2]int{port, class}
	idx := r.rp[key]
	entry := r.NIC.NotifEntryAddr(port, class, idx)
	cookie := cpu.ReadU64(p, entry+8)
	cpu.WriteU64(p, entry, 0)
	cpu.WriteU64(p, entry+8, 0)
	cpu.WriteU64(p, r.NIC.NotifRPAddr(port, class), uint64(idx+1))
	r.rp[key] = idx + 1
	return cookie
}

// HostWaitNotif spins until a notification arrives and consumes it.
func (r *RMA) HostWaitNotif(p *sim.Proc, port, class int) int {
	id := r.span(r.Node.CPU.Name(), "poll.notif", class)
	w0 := r.Node.CPU.SpinU64(p, r.notifSlot(port, class), extoll.NotifValid)
	r.hostConsume(p, port, class)
	r.Node.E.SpanClose(id)
	return extoll.NotifSize(w0)
}

// ---- host-assisted protocol ----

// AssistFlags is the host-memory mailbox the GPU uses to trigger the CPU:
// one request word and one acknowledge word per agent. The flag lives in
// host memory mapped into the GPU address space (zero-copy), as §V-A
// describes.
type AssistFlags struct {
	Req memspace.Addr // GPU writes a request sequence number
	Ack memspace.Addr // CPU acknowledges with the same number
}

// NewAssistFlags allocates a mailbox in host memory.
func NewAssistFlags(n *cluster.Node) AssistFlags {
	return AssistFlags{Req: n.AllocHost(8), Ack: n.AllocHost(8)}
}

// DevRequestAssist posts a request from the GPU (one system-memory store
// plus a fence) and returns without waiting.
func DevRequestAssist(w *gpusim.Warp, f AssistFlags, seq uint64) {
	w.Exec(4)
	w.StSysU64(f.Req, seq)
	w.ThreadfenceSystem()
}

// DevAwaitAssistAck spins on the acknowledge word across PCIe until it
// holds seq.
func DevAwaitAssistAck(w *gpusim.Warp, f AssistFlags, seq uint64) {
	devSpin(w, f.Ack, 0, equals, seq, false, 0)
}

// DevAwaitAssistAckTimeout is DevAwaitAssistAck bounded by timeout: it
// reports false when the host has not acknowledged seq by then.
func DevAwaitAssistAckTimeout(w *gpusim.Warp, f AssistFlags, seq uint64, timeout sim.Duration) bool {
	_, ok := devSpin(w, f.Ack, 0, equals, seq, true, w.Now().Add(timeout))
	return ok
}

// equals is the spin predicate of a word that must reach want.
func equals(v, want uint64) bool { return v == want }

// HostAwaitAssistReq blocks the CPU until the request word reaches seq.
func HostAwaitAssistReq(p *sim.Proc, cpu *hostsim.CPU, f AssistFlags, seq uint64) {
	cpu.WaitFlag(p, f.Req, seq)
}

// HostAckAssist acknowledges a serviced request.
func HostAckAssist(p *sim.Proc, cpu *hostsim.CPU, f AssistFlags, seq uint64) {
	cpu.WriteU64(p, f.Ack, seq)
}
