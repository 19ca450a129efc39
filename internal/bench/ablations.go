package bench

import (
	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
)

// This file implements the ablation studies DESIGN.md calls out: each
// isolates one design choice the paper's discussion (§VI) identifies and
// quantifies its effect.

// IBSingleOpInstr measures the instruction cost of a single device-side
// ibv_post_send and one successful ibv_poll_cq — the paper reports 442
// and 283 (§V-B.3).
func IBSingleOpInstr(p cluster.Params) (post, poll uint64) {
	r := newIBRig(p, 4096)
	defer r.tb.Shutdown()
	qa := r.va.CreateQP(64, 16, 64, false)
	qb := r.vb.CreateQP(64, 16, 64, false)
	core.ConnectVQPs(qa, qb)
	wqe := ibsim.WQE{
		Opcode: ibsim.OpRDMAWrite, Flags: ibsim.FlagSignaled, WRID: 1,
		LAddr: uint64(r.aSend), LKey: r.aSendMR.LKey, Length: 64,
		RAddr: uint64(r.bRecv), RKey: r.bRecvMR.RKey,
	}
	done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		r.tb.A.GPU.ResetCounters()
		r.va.DevPostSend(w, qa, wqe)
		post = r.tb.A.GPU.Counters().InstrExecuted
		// Let the local completion land so the poll succeeds first try.
		w.Proc().Sleep(50_000 * 1000) // 50us
		r.tb.A.GPU.ResetCounters()
		if _, ok := r.va.DevTryPollCQ(w, qa.SendCQ); !ok {
			panic("bench: completion not ready")
		}
		poll = r.tb.A.GPU.Counters().InstrExecuted
	})
	runTestbed(r.tb)
	mustDone(done, "IB single-op measurement")
	return post, poll
}

// AblationEndianness quantifies the paper's static-conversion optimization
// ("we used static converted values where possible"): device post_send
// instruction counts with and without pre-converted static WQE fields.
func AblationEndianness(p cluster.Params) (withOpt, withoutOpt uint64) {
	measure := func(static bool) uint64 {
		r := newIBRig(p, 4096)
		defer r.tb.Shutdown()
		r.va.StaticFieldOpt = static
		qa := r.va.CreateQP(64, 16, 64, false)
		qb := r.vb.CreateQP(64, 16, 64, false)
		core.ConnectVQPs(qa, qb)
		var instr uint64
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			r.tb.A.GPU.ResetCounters()
			r.va.DevPostSend(w, qa, ibsim.WQE{
				Opcode: ibsim.OpRDMAWrite, WRID: 1,
				LAddr: uint64(r.aSend), LKey: r.aSendMR.LKey, Length: 64,
				RAddr: uint64(r.bRecv), RKey: r.bRecvMR.RKey,
			})
			instr = r.tb.A.GPU.Counters().InstrExecuted
		})
		runTestbed(r.tb)
		mustDone(done, "endianness ablation")
		return instr
	}
	return measure(true), measure(false)
}

// CollectiveCost holds single-thread vs warp-collective descriptor costs.
type CollectiveCost struct {
	SingleInstr, CollectiveInstr uint64
	SingleTxns, CollectiveTxns   uint64 // 32B PCIe write transactions
}

// AblationCollectivePostExtoll measures the thread-collective EXTOLL WR
// write (claim 2 of §VI) against the single-thread baseline.
func AblationCollectivePostExtoll(p cluster.Params) CollectiveCost {
	measure := func(collective bool) (uint64, uint64) {
		r := newExtollRig(p, 4096)
		defer r.tb.Shutdown()
		r.openPorts(1)
		threads := 1
		if collective {
			threads = 8
		}
		var instr, txns uint64
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1, ThreadsPerBlock: threads}, func(w *gpusim.Warp) {
			r.tb.A.GPU.ResetCounters()
			if collective {
				r.ra.DevPutCollective(w, 0, r.aSendN, r.bRecvN, 64, 0)
			} else {
				r.ra.DevPut(w, 0, r.aSendN, r.bRecvN, 64, 0)
			}
			c := r.tb.A.GPU.Counters()
			instr, txns = c.InstrExecuted, c.SysmemWrites32B
		})
		runTestbed(r.tb)
		mustDone(done, "collective put ablation")
		return instr, txns
	}
	var c CollectiveCost
	c.SingleInstr, c.SingleTxns = measure(false)
	c.CollectiveInstr, c.CollectiveTxns = measure(true)
	return c
}

// AblationCollectivePostIB measures the warp-cooperative WQE build.
func AblationCollectivePostIB(p cluster.Params) CollectiveCost {
	measure := func(collective bool) (uint64, uint64) {
		r := newIBRig(p, 4096)
		defer r.tb.Shutdown()
		qa := r.va.CreateQP(64, 16, 64, false)
		qb := r.vb.CreateQP(64, 16, 64, false)
		core.ConnectVQPs(qa, qb)
		threads := 1
		if collective {
			threads = 8
		}
		wqe := ibsim.WQE{
			Opcode: ibsim.OpRDMAWrite, WRID: 1,
			LAddr: uint64(r.aSend), LKey: r.aSendMR.LKey, Length: 64,
			RAddr: uint64(r.bRecv), RKey: r.bRecvMR.RKey,
		}
		var instr, txns uint64
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1, ThreadsPerBlock: threads}, func(w *gpusim.Warp) {
			r.tb.A.GPU.ResetCounters()
			if collective {
				r.va.DevPostSendCollective(w, qa, wqe)
			} else {
				r.va.DevPostSend(w, qa, wqe)
			}
			c := r.tb.A.GPU.Counters()
			instr, txns = c.InstrExecuted, c.SysmemWrites32B
		})
		runTestbed(r.tb)
		mustDone(done, "collective post ablation")
		return instr, txns
	}
	var c CollectiveCost
	c.SingleInstr, c.SingleTxns = measure(false)
	c.CollectiveInstr, c.CollectiveTxns = measure(true)
	return c
}

// AblationNotifPlacement contrasts the EXTOLL design constraint of §VI:
// kernel-pre-allocated notification rings in host memory (as shipped)
// versus hypothetical rings in GPU device memory, measured on the
// dev2dev-direct latency path. It quantifies claim 3 ("notification
// queues in GPU memory").
func AblationNotifPlacement(p cluster.Params, size int) (hostRings, devRings LatencyResult) {
	hostRings = ExtollPingPong(p, ExtDirect, size, 10, 2)
	pd := p
	pd.ExtNotifInDevMem = true
	devRings = ExtollPingPong(pd, ExtDirect, size, 10, 2)
	return hostRings, devRings
}

// AblationP2PCollapse contrasts large-message bandwidth with the PCIe
// peer-to-peer read anomaly on and off, confirming it is the sole cause
// of the >1MiB droop in Figs. 1b/4b.
func AblationP2PCollapse(p cluster.Params) (withCollapse, withoutCollapse BandwidthResult) {
	withCollapse = ExtollStream(p, ExtHostControlled, 4<<20, 6)
	po := p
	po.P2PCollapseOff = true
	withoutCollapse = ExtollStream(po, ExtHostControlled, 4<<20, 6)
	return withCollapse, withoutCollapse
}
