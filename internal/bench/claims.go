//putget:allow boundedwait -- claim-verification kernels re-measure the paper's fault-free numbers; their waits complete by construction and must cost exactly what the shipped figures charged

package bench

import (
	"fmt"
	"strings"

	"putget/internal/cluster"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
)

// ClaimsReport substantiates the paper's three §VI claims for future
// put/get interfaces with measurements from the models — the synthesis
// the paper's conclusion points toward.
func ClaimsReport(p cluster.Params) string {
	var b strings.Builder
	b.WriteString("The paper's §VI claims for future put/get interfaces, quantified\n")
	b.WriteString("================================================================\n\n")

	// ---- claim 1: interface footprint ----
	b.WriteString("claim 1 — \"the footprint of the interface has to be as small as\n")
	b.WriteString("possible, as GPU memory is scarce\"\n\n")
	extRing := p.ExtNotifEntries * extoll.NotifBytes
	b.WriteString("  per-connection state (bytes):\n")
	fmt.Fprintf(&b, "    EXTOLL:    %5d BAR page (MMIO, no memory) + 3 x %d notification ring (host)\n",
		extoll.PageSize, extRing)
	ibSQ := 512 * ibsim.WQEBytes
	ibCQ := 512 * ibsim.CQEBytes
	fmt.Fprintf(&b, "    IB verbs:  %5d SQ + %d CQ + %d RQ rings (host OR GPU memory)\n",
		ibSQ, ibCQ, 64*ibsim.RecvWQEBytes)
	fmt.Fprintf(&b, "  at 32 connections that is %d KiB of IB queue state in scarce GPU\n",
		32*(ibSQ+2*ibCQ+64*ibsim.RecvWQEBytes)/1024)
	b.WriteString("  memory vs ~0 for EXTOLL — but EXTOLL pays for it with claim 3.\n\n")

	// ---- claim 2: thread-collaborative interface ----
	b.WriteString("claim 2 — \"the interface has to be in-line with the\n")
	b.WriteString("thread-collaborative execution model\"\n\n")
	ex := AblationCollectivePostExtoll(p)
	ib := AblationCollectivePostIB(p)
	withOpt, withoutOpt := AblationEndianness(p)
	fmt.Fprintf(&b, "  EXTOLL WR:   single thread %d instr / %d PCIe txns -> warp %d instr / %d txns\n",
		ex.SingleInstr, ex.SingleTxns, ex.CollectiveInstr, ex.CollectiveTxns)
	fmt.Fprintf(&b, "  IB WQE:      single thread %d instr / %d PCIe txns -> warp %d instr / %d txns\n",
		ib.SingleInstr, ib.SingleTxns, ib.CollectiveInstr, ib.CollectiveTxns)
	fmt.Fprintf(&b, "  endianness:  %d -> %d instr without static-field pre-conversion\n\n",
		withOpt, withoutOpt)

	// ---- claim 3: minimal PCIe control traffic ----
	b.WriteString("claim 3 — \"PCIe transfers for control have to be kept at a minimum\"\n\n")
	const iters = 100
	direct := ExtollPingPong(p, ExtDirect, 1024, iters, 0)
	poll := ExtollPingPong(p, ExtPollOnGPU, 1024, iters, 0)
	fmt.Fprintf(&b, "  EXTOLL control PCIe transactions per message (1KiB ping-pong):\n")
	fmt.Fprintf(&b, "    polling notifications in sysmem: %.1f reads + %.1f writes\n",
		float64(direct.Counters.SysmemReads32B)/iters, float64(direct.Counters.SysmemWrites32B)/iters)
	fmt.Fprintf(&b, "    polling data in device memory:   %.1f reads + %.1f writes\n",
		float64(poll.Counters.SysmemReads32B)/iters, float64(poll.Counters.SysmemWrites32B)/iters)
	hostRings, devRings := AblationNotifPlacement(p, 1024)
	fmt.Fprintf(&b, "  moving the notification rings to GPU memory: %.2f -> %.2f us latency\n",
		hostRings.HalfRTT.Microseconds(), devRings.HalfRTT.Microseconds())
	imm := measureImmPutGain(p)
	fmt.Fprintf(&b, "  immediate put (payload in the WR, no source DMA): saves %.2f us per small put\n\n", imm)

	b.WriteString("Together: a warp-built immediate descriptor with device-memory\n")
	b.WriteString("completion detection touches PCIe exactly once per message — the\n")
	b.WriteString("design point the paper argues future GPU NIC interfaces must hit.\n")
	return b.String()
}

// measureImmPutGain returns the one-way latency saving of an immediate
// put over a regular 8-byte put, in microseconds.
func measureImmPutGain(p cluster.Params) float64 {
	run := func(imm bool) float64 {
		r := newExtollRig(p, 4096)
		defer r.tb.Shutdown()
		r.openPorts(1)
		var done float64
		d := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			if imm {
				r.ra.DevPutImm(w, 0, 0x42, r.bRecvN, 8, extoll.FlagReqNotif)
			} else {
				r.ra.DevPut(w, 0, r.aSendN, r.bRecvN, 8, extoll.FlagReqNotif)
			}
			r.ra.DevWaitNotif(w, 0, extoll.ClassRequester)
			done = float64(w.Now())
		})
		runTestbed(r.tb)
		mustDone(d, "imm put measurement")
		return done
	}
	return (run(false) - run(true)) / 1e6
}
