package gpusim

import (
	"encoding/binary"
	"fmt"

	"putget/internal/memspace"
	"putget/internal/sim"
)

// Warp is the execution context device code runs against: one warp
// (≤32 threads executing in lockstep) pinned to an SM. Every method
// charges issue time on the SM, adds memory latency where due, and bumps
// the GPU performance counters at the granularities nvprof reports.
//
// Methods must only be called from the warp's own process (inside the
// kernel body passed to Launch). The local ops (Exec, SyncWarp,
// LdGlobalU64, StGlobalU64 and a single-warp SyncThreads) may run ahead
// of the engine clock (see runahead.go); every other op syncs first.
type Warp struct {
	g      *GPU
	p      *sim.Proc
	sm     int
	Block  int // block index within the grid
	WarpID int // warp index within the block
	Lanes  int // active threads (1 for the paper's single-thread blocks)
	block  *Block
}

// GPU returns the device this warp runs on.
func (w *Warp) GPU() *GPU { return w.g }

// Proc exposes the underlying process (for integrating with sim waits).
// The warp syncs first, so the process's clock is the warp's.
func (w *Warp) Proc() *sim.Proc {
	w.sync()
	return w.p
}

// Now returns the warp's virtual time, which leads the engine's while
// the warp runs ahead.
func (w *Warp) Now() sim.Time { return w.now() }

// issue books n instructions on this warp's SM and sleeps through
// them. A local op sleeps with the window-aware sleep; every other op
// has synced, and sleeps on the engine.
func (w *Warp) issue(n int, local bool) {
	if n <= 0 {
		return
	}
	if t := w.book(n); local {
		w.sleep(t)
	} else {
		w.p.SleepUntil(t)
	}
}

// book books n instructions of issue time on this warp's SM at the
// warp's clock, counts them, and returns the instant the issue
// completes. Co-resident warps serialize on the SM's issue port, which
// is the first-order effect of warp scheduling for our small grids.
//
//putget:hot
func (w *Warp) book(n int) sim.Time {
	w.g.ctr.InstrExecuted += uint64(n)
	share := w.g.cfg.IssueShare
	if share <= 0 {
		share = 8
	}
	// The warp's own progress is bounded by its dependent-chain latency;
	// the SM issue port is only occupied for 1/share of that, so up to
	// `share` co-resident warps overlap in each other's pipeline bubbles.
	now := w.now()
	latency := sim.Duration(n) * w.g.cfg.IssueCost
	occDone := w.g.smIssue[w.sm].ReserveDurationAt(now, latency/sim.Duration(share))
	target := now.Add(latency)
	if occDone > target {
		target = occDone
	}
	return target
}

// Exec executes n dependent ALU/control instructions.
func (w *Warp) Exec(n int) { w.issue(n, true) }

// SyncWarp is a warp-level barrier; with lockstep lanes it costs one
// instruction.
func (w *Warp) SyncWarp() { w.issue(1, true) }

// acquirePCIe claims one of the GPU's outstanding-PCIe-operation slots
// (none to claim when unlimited); releasePCIe returns it.
func (w *Warp) acquirePCIe() {
	if w.g.pcieSlots != nil {
		w.g.pcieSlots.Acquire(w.p)
	}
}

func (w *Warp) releasePCIe() {
	if w.g.pcieSlots != nil {
		w.g.pcieSlots.Release()
	}
}

// sectors returns the number of 32-byte transactions for n contiguous
// bytes.
func sectors(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64((n + 31) / 32)
}

// ---- device (global) memory: through L2 ----

// ldGlobal performs a coalesced warp load of n contiguous bytes.
func (w *Warp) ldGlobal(addr memspace.Addr, buf []byte) {
	lat := w.ldProbe(addr, len(buf), false)
	// Snapshot the data at probe time: a hit returns the cached epoch's
	// value even if a DMA write lands during the access latency. (The
	// write invalidates the sector, so the next access misses and reads
	// fresh data — exactly how device-memory polling behaves on hardware.)
	if err := w.g.f.Space().Read(addr, buf); err != nil {
		panic(fmt.Sprintf("gpusim: %s: %v", w.g.cfg.Name, err))
	}
	w.p.Sleep(lat)
}

// ldProbe issues a coalesced load of n bytes at addr, probes its L2
// sectors and returns the load's latency; the caller reads the data
// (the probe-time snapshot) and then sleeps that long.
func (w *Warp) ldProbe(addr memspace.Addr, n int, local bool) sim.Duration {
	w.countLd(n)
	w.issue(1, local)
	return w.l2Read(addr, n)
}

// countLd counts a coalesced device-memory load of n bytes, before its
// issue.
//
//putget:hot
func (w *Warp) countLd(n int) {
	w.g.ctr.MemAccesses++
	w.g.ctr.L2ReadRequests += sectors(n)
}

// l2Read probes the L2 sectors of an n-byte load at addr once its issue
// has completed, and returns the load's latency.
//
//putget:hot
func (w *Warp) l2Read(addr memspace.Addr, n int) sim.Duration {
	hit := true
	base := uint64(addr) &^ 31
	end := uint64(addr) + uint64(n)
	for s := base; s < end; s += 32 {
		if !w.g.l2.Access(s, false) {
			hit = false
			w.g.ctr.L2ReadMisses++
		} else {
			w.g.ctr.L2ReadHits++
		}
	}
	lat := w.g.cfg.L2HitLatency
	if !hit {
		lat += w.g.cfg.DevMemLatency
	}
	return lat
}

// stGlobal performs a coalesced warp store of n contiguous bytes
// (write-through functionally; fire-and-forget timing beyond issue).
func (w *Warp) stGlobal(addr memspace.Addr, data []byte) {
	w.stIssue(addr, len(data), false)
	if err := w.g.f.Space().Write(addr, data); err != nil {
		panic(fmt.Sprintf("gpusim: %s: %v", w.g.cfg.Name, err))
	}
}

// stIssue issues a coalesced store of n bytes at addr and marks its L2
// sectors written; the caller then writes the data.
func (w *Warp) stIssue(addr memspace.Addr, n int, local bool) {
	w.g.ctr.MemAccesses++
	w.g.ctr.L2WriteRequests += sectors(n)
	w.issue(1, local)
	base := uint64(addr) &^ 31
	end := uint64(addr) + uint64(n)
	for s := base; s < end; s += 32 {
		w.g.l2.Access(s, true)
	}
}

// LdGlobalU64 loads a 64-bit word from device memory.
//
//putget:hot
func (w *Warp) LdGlobalU64(addr memspace.Addr) uint64 {
	w.mustDevice(addr, "LdGlobalU64")
	w.g.ctr.Globmem64Reads++
	lat := w.ldProbe(addr, 8, true)
	v := w.ldWord(addr)
	w.sleep(w.now().Add(lat))
	return v
}

// StGlobalU64 stores a 64-bit word to device memory.
//
//putget:hot
func (w *Warp) StGlobalU64(addr memspace.Addr, v uint64) {
	w.mustDevice(addr, "StGlobalU64")
	w.g.ctr.Globmem64Writes++
	w.stIssue(addr, 8, true)
	w.stWord(addr, v)
}

// ldWord and stWord are the functional (zero-time) word accesses of
// device memory. A running burst sees its own buffered stores, and
// buffers its stores until the replay reaches them.
//
//putget:hot
func (w *Warp) ldWord(addr memspace.Addr) uint64 {
	v, err := w.g.f.Space().ReadU64(addr)
	if err != nil {
		panic(fmt.Sprintf("gpusim: %s: %v", w.g.cfg.Name, err))
	}
	if ra := &w.g.ra; ra.open {
		v = ra.forward(addr, v)
	}
	return v
}

//putget:hot
func (w *Warp) stWord(addr memspace.Addr, v uint64) {
	if ra := &w.g.ra; ra.open {
		ra.store(addr, v)
		return
	}
	w.g.writeWord(addr, v)
}

// LdGlobalU64Coalesced loads Lanes consecutive 64-bit words starting at
// addr as one warp instruction (each lane one word).
func (w *Warp) LdGlobalU64Coalesced(addr memspace.Addr) []uint64 {
	w.sync()
	w.mustDevice(addr, "LdGlobalU64Coalesced")
	w.g.ctr.Globmem64Reads += uint64(w.Lanes)
	buf := make([]byte, 8*w.Lanes)
	w.ldGlobal(addr, buf)
	out := make([]uint64, w.Lanes)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out
}

// StGlobalU64Coalesced stores vals (one per lane, len ≤ Lanes) to
// consecutive words starting at addr as one warp instruction.
func (w *Warp) StGlobalU64Coalesced(addr memspace.Addr, vals []uint64) {
	w.sync()
	w.mustDevice(addr, "StGlobalU64Coalesced")
	if len(vals) > w.Lanes {
		panic("gpusim: more values than lanes")
	}
	w.g.ctr.Globmem64Writes += uint64(len(vals))
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	w.stGlobal(addr, buf)
}

// FillGlobal writes n bytes of payload into device memory, modelling a
// coalesced warp copy loop (used by examples to produce data in-kernel).
func (w *Warp) FillGlobal(addr memspace.Addr, data []byte) {
	w.sync()
	w.mustDevice(addr, "FillGlobal")
	per := 8 * w.Lanes
	for off := 0; off < len(data); off += per {
		end := off + per
		if end > len(data) {
			end = len(data)
		}
		w.g.ctr.Globmem64Writes += uint64((end - off + 7) / 8)
		w.stGlobal(addr+memspace.Addr(off), data[off:end])
	}
}

// ---- system memory and MMIO: across PCIe, uncached ----

// LdSysU64 loads a 64-bit word from host system memory (or a BAR). The
// warp stalls for the full PCIe round trip; the transaction also occupies
// the GPU's egress link, which is how notification polling pressures the
// fabric in the paper's analysis.
func (w *Warp) LdSysU64(addr memspace.Addr) uint64 {
	var b [8]byte
	w.ldSys(addr, b[:], "LdSysU64")
	return binary.LittleEndian.Uint64(b[:])
}

// LdSysU32 loads a 32-bit word from system memory.
func (w *Warp) LdSysU32(addr memspace.Addr) uint32 {
	var b [4]byte
	w.ldSys(addr, b[:], "LdSysU32")
	return binary.LittleEndian.Uint32(b[:])
}

// LdSysBytes reads n contiguous bytes from system memory as independent
// loads issued back-to-back: one instruction and one 32-byte transaction
// per sector, but a single PCIe round trip (memory-level parallelism).
func (w *Warp) LdSysBytes(addr memspace.Addr, buf []byte) {
	w.ldSys(addr, buf, "LdSysBytes")
}

// ldSys is the system-memory load every LdSys* op is: one instruction,
// one 32-byte transaction per sector (traversing L2, never hitting:
// system memory is uncached) and one PCIe round trip.
//
//putget:hot
func (w *Warp) ldSys(addr memspace.Addr, buf []byte, op string) {
	w.sync()
	w.mustNotDevice(addr, op)
	w.countLdSys(len(buf))
	w.issue(1, false)
	w.acquirePCIe()
	w.p.Sleep(w.g.cfg.PCIeOpOverhead)
	w.g.f.Read(w.p, w.g.ep, addr, buf)
	w.releasePCIe()
}

// countLdSys counts a system-memory load of n bytes, before its issue.
//
//putget:hot
func (w *Warp) countLdSys(n int) {
	s := sectors(n)
	w.g.ctr.MemAccesses++
	w.g.ctr.SysmemReads32B += s
	w.g.ctr.L2ReadRequests += s
	w.g.ctr.L2ReadMisses += s
}

// StSysU64 posts a 64-bit store to system memory or MMIO. The warp pays
// issue plus LSU overhead; delivery is asynchronous (posted write).
func (w *Warp) StSysU64(addr memspace.Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.stSys(addr, b[:], "StSysU64")
}

// StSysU32 posts a 32-bit store to system memory or MMIO.
func (w *Warp) StSysU32(addr memspace.Addr, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.stSys(addr, b[:], "StSysU32")
}

// StSysCoalesced posts data (multiple of 8 bytes, ≤ Lanes words) as one
// warp store instruction — the thread-collective descriptor-write
// optimization the paper's claims call for. Transactions are counted per
// 32-byte sector instead of per word.
func (w *Warp) StSysCoalesced(addr memspace.Addr, data []byte) {
	w.stSys(addr, data, "StSysCoalesced")
}

// stSys is the posted system-memory store every StSys* op is: one
// instruction and one 32-byte transaction per sector, then the LSU
// overhead before the write leaves. A word store is one sector, and no
// wider than a warp of at least one lane.
//
//putget:hot
func (w *Warp) stSys(addr memspace.Addr, data []byte, op string) {
	w.sync()
	w.mustNotDevice(addr, op)
	if len(data) > 8*w.Lanes {
		panic("gpusim: " + op + " wider than warp")
	}
	n := sectors(len(data))
	w.g.ctr.MemAccesses++
	w.g.ctr.SysmemWrites32B += n
	w.g.ctr.L2WriteRequests += n
	w.issue(1, false)
	w.acquirePCIe()
	w.p.Sleep(w.g.cfg.PCIeOpOverhead)
	w.g.f.PostedWrite(w.g.ep, addr, data)
	w.releasePCIe()
}

// ThreadfenceSystem orders this warp's prior stores against all observers
// (__threadfence_system): it blocks until posted writes have drained.
func (w *Warp) ThreadfenceSystem() {
	w.sync()
	w.issue(1, false)
	w.g.f.FlushWrites(w.p, w.g.ep)
}

// ---- guards ----

func (w *Warp) mustDevice(addr memspace.Addr, op string) {
	if !w.g.isDevice(addr) {
		panic(fmt.Sprintf("gpusim: %s: %s at %#x is not device memory", w.g.cfg.Name, op, uint64(addr)))
	}
}

func (w *Warp) mustNotDevice(addr memspace.Addr, op string) {
	if w.g.isDevice(addr) {
		panic(fmt.Sprintf("gpusim: %s: %s at %#x targets device memory; use the global-memory ops", w.g.cfg.Name, op, uint64(addr)))
	}
}

// PollGlobalU64Masked spins on a device-memory word until (value & mask)
// == want, returning the full word that satisfied the condition. It is
// semantically identical to a LdGlobalU64 spin loop — same instruction,
// L2 and access counters, same observation times — but between inbound
// writes it parks on the GPU's inbound-write signal and bulk-accounts the
// probes that would have happened, keeping simulation cost independent of
// how long the wait is.
//
// The per-probe cost model is one load instruction plus four address/
// compare/branch instructions, one L2 hit, and the configured spin-loop
// stall. (While spinning, the polled sector is L2 resident by
// construction; only the probes after an invalidation miss.)
func (w *Warp) PollGlobalU64Masked(addr memspace.Addr, want, mask uint64) uint64 {
	w.mustDevice(addr, "PollGlobalU64Masked")
	v, _ := w.poll(addr, want, mask, false, 0)
	return v
}

// PollGlobalU64 spins until the device-memory word equals want.
func (w *Warp) PollGlobalU64(addr memspace.Addr, want uint64) uint64 {
	return w.PollGlobalU64Masked(addr, want, ^uint64(0))
}

// PollGlobalU64MaskedTimeout is PollGlobalU64Masked with a deadline: it
// returns the satisfying word and true, or the last observed word and
// false once `timeout` of virtual time has elapsed. The cost model is a
// sleep-probe loop (probe cadence identical to the unbounded poll), which
// is what a kernel that must not spin forever actually compiles to.
func (w *Warp) PollGlobalU64MaskedTimeout(addr memspace.Addr, want, mask uint64, timeout sim.Duration) (uint64, bool) {
	w.mustDevice(addr, "PollGlobalU64MaskedTimeout")
	return w.poll(addr, want, mask, true, w.now().Add(timeout))
}

// poll is PollGlobalU64Masked and, when bounded, its deadline form. A
// bounded poll returns false from the first failed probe at or past
// deadline, or when the deadline falls within one probe of a park. Its
// probes are local ops; it syncs before it reads the inbound epoch and
// before it stalls or parks.
func (w *Warp) poll(addr memspace.Addr, want, mask uint64, bounded bool, deadline sim.Time) (uint64, bool) {
	var span sim.SpanID
	if w.g.e.Observing() {
		span = w.g.e.SpanOpen(w.g.cfg.Name, "poll.mem")
	}
	probe := 5*w.g.cfg.IssueCost + w.g.cfg.L2HitLatency + w.g.cfg.PollLoopStall
	for {
		w.sync()
		epoch := w.g.inboundEpoch
		v := w.LdGlobalU64(addr)
		w.Exec(4)
		if v&mask == want {
			w.g.e.SpanClose(span)
			return v, true
		}
		if bounded && w.now() >= deadline {
			w.g.e.SpanClose(span)
			return v, false
		}
		w.sync()
		w.p.Sleep(w.g.cfg.PollLoopStall)
		if w.g.inboundEpoch != epoch {
			// A write landed while we were probing; re-probe immediately.
			continue
		}
		// Park until the next inbound write (or the deadline), then
		// bulk-account the probes that would have run during the wait.
		start := w.p.Now()
		if !bounded {
			w.g.inboundSig.Wait(w.p)
		} else {
			if deadline.Sub(start) <= probe {
				if deadline > start {
					w.p.SleepUntil(deadline)
				}
				w.g.e.SpanClose(span)
				return v, false
			}
			w.g.inboundSig.WaitUntil(w.p, deadline)
		}
		skipped := uint64(w.p.Now().Sub(start) / probe)
		w.g.ctr.InstrExecuted += 5 * skipped
		w.g.ctr.MemAccesses += skipped
		w.g.ctr.Globmem64Reads += skipped
		w.g.ctr.L2ReadRequests += skipped
		w.g.ctr.L2ReadHits += skipped
	}
}

// LdGlobalBytes reads n contiguous bytes from device memory as one
// coalesced access.
func (w *Warp) LdGlobalBytes(addr memspace.Addr, buf []byte) {
	w.sync()
	w.mustDevice(addr, "LdGlobalBytes")
	w.g.ctr.Globmem64Reads += uint64((len(buf) + 7) / 8)
	w.ldGlobal(addr, buf)
}

// AtomicAddGlobalU64 performs an atomic fetch-and-add on a device-memory
// word. Atomics execute at the L2 (they bypass the SM caches), so the
// cost is one instruction plus an L2 round trip regardless of hit state.
func (w *Warp) AtomicAddGlobalU64(addr memspace.Addr, delta uint64) uint64 {
	w.sync()
	w.mustDevice(addr, "AtomicAddGlobalU64")
	w.g.ctr.MemAccesses++
	w.g.ctr.Globmem64Reads++
	w.g.ctr.Globmem64Writes++
	w.g.ctr.L2ReadRequests++
	w.g.ctr.L2WriteRequests++
	w.g.l2.Access(uint64(addr), true)
	w.issue(1, false)
	old := w.ldWord(addr)
	w.stWord(addr, old+delta)
	// The L2 atomic unit serializes same-address atomics; approximate
	// with the hit latency plus a fixed atomic-unit occupancy.
	w.p.Sleep(w.g.cfg.L2HitLatency + 4*w.g.cfg.IssueCost)
	return old
}

// CASGlobalU64 performs an atomic compare-and-swap on a device-memory
// word, returning the previous value.
func (w *Warp) CASGlobalU64(addr memspace.Addr, expect, desired uint64) uint64 {
	w.sync()
	w.mustDevice(addr, "CASGlobalU64")
	w.g.ctr.MemAccesses++
	w.g.ctr.Globmem64Reads++
	w.g.ctr.L2ReadRequests++
	w.g.l2.Access(uint64(addr), true)
	w.issue(1, false)
	old := w.ldWord(addr)
	if old == expect {
		w.g.ctr.Globmem64Writes++
		w.g.ctr.L2WriteRequests++
		w.stWord(addr, desired)
	}
	w.p.Sleep(w.g.cfg.L2HitLatency + 4*w.g.cfg.IssueCost)
	return old
}
