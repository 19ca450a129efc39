//putget:allow boundedwait -- per-stage breakdown instruments the paper's fault-free pipeline; its waits must be byte-identical to the modes they decompose, and the table's exact-sum invariant pins them

package bench

import (
	"encoding/binary"
	"fmt"
	"strings"

	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/runner"
	"putget/internal/sim"
	"putget/internal/trace"
)

// breakdownSize is the payload used by the stage-breakdown experiment: big
// enough that DMA fetch and wire serialization are visible next to the
// fixed per-message costs, small enough to stay in the latency regime.
const breakdownSize = 4096

// breakdownResult is one mode's decomposition: the measured end-to-end
// time of a single put and the exclusive per-stage attribution of that
// window, which sums to E2E exactly (uncovered time lands on "(other)").
type breakdownResult struct {
	Mode   string
	E2E    sim.Duration
	Stages []trace.StageShare
}

// breakdownWindow attributes [t0, t1] over the recorded spans. Kernel
// spans are excluded: both GPUs run a kernel covering the whole window,
// so they would absorb idle segments that the table should report as
// "(other)" instead. The class ranking encodes nesting the span starts
// alone cannot: poll spans are outermost waits (both sides poll across
// the whole exchange, so they must only claim time nothing else explains),
// raw PCIe flight spans sit in the middle (MMIO stores pipeline, so each
// store's flight would otherwise shadow the WR-creation stage issuing it),
// and NIC/actor pipeline stages are innermost.
func breakdownWindow(rec *trace.Recorder, t0, t1 sim.Time) []trace.StageShare {
	var kept []trace.Span
	for _, s := range rec.Spans() {
		if s.Kind != "kernel" {
			kept = append(kept, s)
		}
	}
	return trace.Breakdown(kept, t0, t1, func(s trace.Span) int {
		switch {
		case strings.HasPrefix(s.Kind, "poll"):
			return 0
		case s.Comp == "pcie":
			return 1
		default:
			return 2
		}
	})
}

// breakdownExtoll measures a single EXTOLL put A→B with requester and
// completer notifications. The window runs from the origin actor starting
// WR creation to the destination actor consuming the completer
// notification.
func breakdownExtoll(cp cluster.Params, gpuDirect bool) breakdownResult {
	size := breakdownSize
	tb := cluster.NewExtollPair(fitParams(cp, uint64(size)))
	defer tb.Shutdown()
	rec := trace.Attach(tb.E, 200000)
	ra, rb := core.NewRMA(tb.A), core.NewRMA(tb.B)
	src := tb.A.AllocDev(uint64(size))
	dst := tb.B.AllocDev(uint64(size))
	srcN := ra.Register(src, uint64(size))
	dstN := rb.Register(dst, uint64(size))
	ra.OpenPort(0)
	rb.OpenPort(0)
	extoll.ConnectPorts(tb.A.Extoll, 0, tb.B.Extoll, 0)

	var t0, t1 sim.Time
	flags := extoll.FlagReqNotif | extoll.FlagCompNotif
	var doneA, doneB *sim.Completion
	mode := "EXTOLL host-controlled put (HostPut + completer notification)"
	if gpuDirect {
		mode = "EXTOLL GPU-direct put (DevPut + completer notification)"
		doneA = tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			t0 = w.Now()
			ra.DevPut(w, 0, srcN, dstN, size, flags)
			ra.DevWaitNotif(w, 0, extoll.ClassRequester)
		})
		doneB = tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			rb.DevWaitNotif(w, 0, extoll.ClassCompleter)
			t1 = w.Now()
		})
	} else {
		doneA = sim.NewCompletion(tb.E)
		tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			t0 = p.Now()
			ra.HostPut(p, 0, srcN, dstN, size, flags)
			ra.HostWaitNotif(p, 0, extoll.ClassRequester)
			doneA.Complete()
		})
		doneB = sim.NewCompletion(tb.E)
		tb.E.Spawn("b.cpu", func(p *sim.Proc) {
			rb.HostWaitNotif(p, 0, extoll.ClassCompleter)
			t1 = p.Now()
			doneB.Complete()
		})
	}
	runTestbed(tb)
	mustDone(doneA, "breakdown extoll origin")
	mustDone(doneB, "breakdown extoll destination")
	return breakdownResult{Mode: mode, E2E: t1.Sub(t0), Stages: breakdownWindow(rec, t0, t1)}
}

// breakdownIB measures a single InfiniBand RDMA write A→B. One-sided
// writes raise no completion at the destination, so the last payload word
// carries a stamp the destination actor polls for — GPU polls device
// memory directly, the host-controlled variant polls across PCIe.
func breakdownIB(cp cluster.Params, gpuDirect bool) breakdownResult {
	size := breakdownSize
	tb := cluster.NewIBPair(fitParams(cp, uint64(size)))
	defer tb.Shutdown()
	rec := trace.Attach(tb.E, 200000)
	va, vb := core.NewVerbs(tb.A), core.NewVerbs(tb.B)
	src := tb.A.AllocDev(uint64(size))
	dst := tb.B.AllocDev(uint64(size))
	srcMR := va.RegMR(src, uint64(size))
	dstMR := vb.RegMR(dst, uint64(size))
	qa := va.CreateQP(64, 16, 64, false)
	qb := vb.CreateQP(64, 16, 64, false)
	core.ConnectVQPs(qa, qb)

	const stamp = uint64(0x51b7a3e9c4d20f15)
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], stamp)
	mustWrite(tb.A.GPU.HostWrite(src+memspace.Addr(size-8), sb[:]))
	wqe := ibsim.WQE{
		Opcode: ibsim.OpRDMAWrite, Flags: ibsim.FlagSignaled, WRID: 1,
		LAddr: uint64(src), LKey: srcMR.LKey, Length: size,
		RAddr: uint64(dst), RKey: dstMR.RKey,
	}
	stampAddr := dst + memspace.Addr(size-8)

	var t0, t1 sim.Time
	var doneA, doneB *sim.Completion
	mode := "InfiniBand host-controlled RDMA write (HostPostSend + stamp poll)"
	if gpuDirect {
		mode = "InfiniBand GPU-direct RDMA write (DevPostSend + stamp poll)"
		doneA = tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			t0 = w.Now()
			va.DevPostSend(w, qa, wqe)
			va.DevPollCQ(w, qa.SendCQ)
		})
		doneB = tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			w.PollGlobalU64(stampAddr, stamp)
			t1 = w.Now()
		})
	} else {
		doneA = sim.NewCompletion(tb.E)
		tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			t0 = p.Now()
			va.HostPostSend(p, qa, wqe)
			va.HostPollCQ(p, qa.SendCQ)
			doneA.Complete()
		})
		doneB = sim.NewCompletion(tb.E)
		tb.E.Spawn("b.cpu", func(p *sim.Proc) {
			tb.B.CPU.WaitFlag(p, stampAddr, stamp)
			t1 = p.Now()
			doneB.Complete()
		})
	}
	_ = qb
	runTestbed(tb)
	mustDone(doneA, "breakdown ib origin")
	mustDone(doneB, "breakdown ib destination")
	return breakdownResult{Mode: mode, E2E: t1.Sub(t0), Stages: breakdownWindow(rec, t0, t1)}
}

// formatBreakdown renders one mode's table. Rows appear in
// first-attribution (roughly pipeline) order; the total row restates the
// invariant that the stages partition the measured window exactly.
func formatBreakdown(res breakdownResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", res.Mode)
	fmt.Fprintf(&b, "  %-32s %12s %8s\n", "stage", "time[us]", "share")
	var sum sim.Duration
	for _, r := range res.Stages {
		name := r.Kind
		if r.Comp != "" {
			name = r.Comp + " " + r.Kind
		}
		fmt.Fprintf(&b, "  %-32s %12.4f %7.1f%%\n",
			name, r.Time.Microseconds(), 100*float64(r.Time)/float64(res.E2E))
		sum += r.Time
	}
	fmt.Fprintf(&b, "  %-32s %12.4f %7.1f%%\n", "total",
		sum.Microseconds(), 100*float64(sum)/float64(res.E2E))
	fmt.Fprintf(&b, "  %-32s %12.4f\n", "measured end-to-end",
		res.E2E.Microseconds())
	return b.String()
}

// StageBreakdown decomposes a single 4 KiB put end to end for the four
// control modes, attributing every picosecond of the window between "the
// origin actor starts building the WR" and "the destination actor observes
// completion" to the innermost traced pipeline stage (WR creation,
// doorbell/MMIO flight, descriptor and payload DMA fetch, wire
// serialization, completer landing, notification write, polling). The
// modes shard across the harness worker pool; output is byte-identical
// for any -parallel value.
func StageBreakdown(cp cluster.Params) string {
	modes := []struct {
		run func() breakdownResult
	}{
		{func() breakdownResult { return breakdownExtoll(cp, true) }},
		{func() breakdownResult { return breakdownExtoll(cp, false) }},
		{func() breakdownResult { return breakdownIB(cp, true) }},
		{func() breakdownResult { return breakdownIB(cp, false) }},
	}
	outs := runner.Map(cp.Parallel, modes, func(_ int, m struct {
		run func() breakdownResult
	}) string {
		return formatBreakdown(m.run())
	})
	var b strings.Builder
	fmt.Fprintf(&b, "breakdown: single %dB put, per-stage latency attribution\n", breakdownSize)
	b.WriteString("(stages are exclusive innermost-span time; rows sum exactly to the measured window)\n\n")
	b.WriteString(strings.Join(outs, "\n"))
	return b.String()
}
