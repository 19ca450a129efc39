//putget:allow boundedwait -- staged host-assisted protocols reproduce the paper's Figure 7 timing; every notification waited on is produced by the preceding stage of the same fault-free run

package bench

import (
	"fmt"
	"strings"

	"putget/internal/cluster"
	"putget/internal/extoll"
	"putget/internal/sim"
)

// StagedStream measures the pre-GPUDirect hybrid model the paper's
// background contrasts: data staged through host memory (D2H copy → put
// between host buffers → H2D copy), with copy engines doing the PCIe
// legs. Because the network then DMA-reads *host* memory, it sidesteps
// the P2P read collapse — the reason real MPI stacks kept host staging
// pipelines for large messages even after GPUDirect RDMA appeared.
func StagedStream(p cluster.Params, size, messages int) BandwidthResult {
	r := newExtollRig(p, uint64(size)+64)
	defer r.tb.Shutdown()
	r.openPorts(1)
	r.fillPayload(size)

	// Host staging buffers, registered with the ATU.
	aStage := r.tb.A.AllocHost(uint64(size) + 64)
	bStage := r.tb.B.AllocHost(uint64(size) + 64)
	aStageN := r.ra.Register(aStage, uint64(size)+64)
	bStageN := r.rb.Register(bStage, uint64(size)+64)
	// Ack flag: B tells A its H2D finished so the stage can be reused.
	ackFlag := r.tb.A.AllocHost(8)
	ackNLA := r.ra.Register(ackFlag, 8)

	var tStart, tEnd sim.Time
	doneA := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("a.cpu.staged", func(proc *sim.Proc) {
		tStart = proc.Now()
		for i := 1; i <= messages; i++ {
			// Stage the payload out of GPU memory.
			r.tb.A.GPU.Copy(proc, aStage, r.aSend, size)
			// Put host→host and wait for local completion.
			r.ra.HostPut(proc, 0, aStageN, bStageN, size, extoll.FlagReqNotif|extoll.FlagCompNotif)
			r.ra.HostWaitNotif(proc, 0, extoll.ClassRequester)
			// Wait for B's ack before reusing the staging buffer.
			r.tb.A.CPU.WaitFlag(proc, ackFlag, uint64(i))
		}
		doneA.Complete()
	})
	doneB := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("b.cpu.staged", func(proc *sim.Proc) {
		for i := 1; i <= messages; i++ {
			r.rb.HostWaitNotif(proc, 0, extoll.ClassCompleter)
			r.tb.B.GPU.Copy(proc, r.bRecv, bStage, size)
			// Ack A through an immediate put into its flag word.
			r.rb.HostPutImm(proc, 0, uint64(i), ackNLA, 8, 0)
			if i == messages {
				tEnd = proc.Now()
			}
		}
		doneB.Complete()
	})
	runTestbed(r.tb)
	mustDone(doneA, "staged stream A")
	mustDone(doneB, "staged stream B")

	elapsed := tEnd.Sub(tStart)
	return BandwidthResult{
		Size: size, Messages: messages, Elapsed: elapsed,
		BytesPerSec: float64(size) * float64(messages) / elapsed.Seconds(),
	}
}

// StagedPingPong measures staged one-way latency.
func StagedPingPong(p cluster.Params, size, iters, warmup int) LatencyResult {
	r := newExtollRig(p, uint64(size)+64)
	defer r.tb.Shutdown()
	r.openPorts(1)
	r.fillPayload(size)
	aStage := r.tb.A.AllocHost(uint64(size) + 64)
	bStage := r.tb.B.AllocHost(uint64(size) + 64)
	aStageN := r.ra.Register(aStage, uint64(size)+64)
	bStageN := r.rb.Register(bStage, uint64(size)+64)
	total := warmup + iters

	var tStart, tEnd sim.Time
	doneA := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("a.cpu", func(proc *sim.Proc) {
		for i := 1; i <= total; i++ {
			if i == warmup+1 {
				tStart = proc.Now()
			}
			r.tb.A.GPU.Copy(proc, aStage, r.aSend, size)
			r.ra.HostPut(proc, 0, aStageN, bStageN, size, extoll.FlagReqNotif|extoll.FlagCompNotif)
			r.ra.HostWaitNotif(proc, 0, extoll.ClassRequester)
			// Pong arrives in A's stage; completer notification signals it.
			r.ra.HostWaitNotif(proc, 0, extoll.ClassCompleter)
			r.tb.A.GPU.Copy(proc, r.aRecv, aStage, size)
		}
		tEnd = proc.Now()
		doneA.Complete()
	})
	doneB := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("b.cpu", func(proc *sim.Proc) {
		for i := 1; i <= total; i++ {
			r.rb.HostWaitNotif(proc, 0, extoll.ClassCompleter)
			r.tb.B.GPU.Copy(proc, r.bRecv, bStage, size)
			r.tb.B.GPU.Copy(proc, bStage, r.bSend, size)
			r.rb.HostPut(proc, 0, bStageN, aStageN, size, extoll.FlagReqNotif|extoll.FlagCompNotif)
			r.rb.HostWaitNotif(proc, 0, extoll.ClassRequester)
		}
		doneB.Complete()
	})
	runTestbed(r.tb)
	mustDone(doneA, "staged ping-pong A")
	mustDone(doneB, "staged ping-pong B")

	return LatencyResult{
		Size: size, Iters: iters,
		HalfRTT: tEnd.Sub(tStart) / sim.Duration(2*iters),
	}
}

// StagedComparison contrasts GPUDirect (dev2dev-hostControlled) with host
// staging across sizes — the background trade-off of §II.
func StagedComparison(p cluster.Params) string {
	var b strings.Builder
	b.WriteString("GPUDirect RDMA (dev2dev) vs host-staged communication, EXTOLL\n\n")
	b.WriteString("latency [us]:\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s\n", "size[B]", "GPUDirect", "staged")
	for _, size := range []int{64, 4096, 65536} {
		d := ExtollPingPong(p, ExtHostControlled, size, 8, 2).HalfRTT.Microseconds()
		s := StagedPingPong(p, size, 8, 2).HalfRTT.Microseconds()
		fmt.Fprintf(&b, "  %-10d %12.2f %12.2f\n", size, d, s)
	}
	b.WriteString("\nbandwidth [MB/s]:\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s\n", "size[B]", "GPUDirect", "staged")
	for _, size := range []int{65536, 1 << 20, 4 << 20} {
		d := ExtollStream(p, ExtHostControlled, size, 10).BytesPerSec / 1e6
		s := StagedStream(p, size, 10).BytesPerSec / 1e6
		fmt.Fprintf(&b, "  %-10d %12.1f %12.1f\n", size, d, s)
	}
	b.WriteString("\nGPUDirect wins everywhere the P2P read path is healthy; past the\n")
	b.WriteString("1 MiB collapse, staging through host memory overtakes it — which is\n")
	b.WriteString("why production stacks pipeline large transfers through the host.\n")
	return b.String()
}
