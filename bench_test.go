// Benchmarks mapping 1:1 to the paper's tables and figures. Each runs a
// representative cross-section of its experiment on the simulated testbed
// and reports the headline numbers as custom metrics (virtual-time
// results; wall time only reflects simulation cost). The full sweeps that
// print the complete rows/series live in cmd/putgetbench.
package putget_test

import (
	"testing"

	"putget/internal/bench"
	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/shmem"
)

// BenchmarkFig1aExtollLatency regenerates the EXTOLL latency comparison at
// the 1 KiB cross-section (paper Fig. 1a).
func BenchmarkFig1aExtollLatency(b *testing.B) {
	p := cluster.Default()
	var direct, pollGPU, assisted, host float64
	for i := 0; i < b.N; i++ {
		direct = bench.ExtollPingPong(p, bench.ExtDirect, 1024, 10, 2).HalfRTT.Microseconds()
		pollGPU = bench.ExtollPingPong(p, bench.ExtPollOnGPU, 1024, 10, 2).HalfRTT.Microseconds()
		assisted = bench.ExtollPingPong(p, bench.ExtAssisted, 1024, 10, 2).HalfRTT.Microseconds()
		host = bench.ExtollPingPong(p, bench.ExtHostControlled, 1024, 10, 2).HalfRTT.Microseconds()
	}
	b.ReportMetric(direct, "direct_us")
	b.ReportMetric(pollGPU, "pollGPU_us")
	b.ReportMetric(assisted, "assisted_us")
	b.ReportMetric(host, "host_us")
	b.ReportMetric(direct/host, "direct/host")
}

// BenchmarkFig1bExtollBandwidth regenerates the EXTOLL bandwidth peak and
// the post-1MiB collapse (paper Fig. 1b).
func BenchmarkFig1bExtollBandwidth(b *testing.B) {
	p := cluster.Default()
	var peak, gpu, collapsed float64
	for i := 0; i < b.N; i++ {
		peak = bench.ExtollStream(p, bench.ExtHostControlled, 256<<10, 16).BytesPerSec
		gpu = bench.ExtollStream(p, bench.ExtDirect, 16<<10, 24).BytesPerSec
		collapsed = bench.ExtollStream(p, bench.ExtHostControlled, 4<<20, 6).BytesPerSec
	}
	b.ReportMetric(peak/1e6, "host_peak_MB/s")
	b.ReportMetric(gpu/1e6, "gpu_16KiB_MB/s")
	b.ReportMetric(collapsed/1e6, "host_4MiB_MB/s")
}

// BenchmarkFig2ExtollMessageRate regenerates the EXTOLL message-rate
// endpoints (paper Fig. 2).
func BenchmarkFig2ExtollMessageRate(b *testing.B) {
	p := cluster.Default()
	var blocks, host, assisted float64
	for i := 0; i < b.N; i++ {
		blocks = bench.ExtollMessageRate(p, bench.RateBlocks, 32, 80).MsgsPerSec
		host = bench.ExtollMessageRate(p, bench.RateHostControlled, 32, 80).MsgsPerSec
		assisted = bench.ExtollMessageRate(p, bench.RateAssisted, 32, 80).MsgsPerSec
	}
	b.ReportMetric(blocks, "blocks32_msg/s")
	b.ReportMetric(host, "host32_msg/s")
	b.ReportMetric(assisted, "assisted32_msg/s")
}

// BenchmarkTable1ExtollCounters regenerates the polling-approach counter
// comparison (paper Table I; 100 iterations, 1 KiB).
func BenchmarkTable1ExtollCounters(b *testing.B) {
	p := cluster.Default()
	var sysInstr, devInstr, devWrites, sysReads uint64
	for i := 0; i < b.N; i++ {
		direct := bench.ExtollPingPong(p, bench.ExtDirect, 1024, 100, 0).Counters
		poll := bench.ExtollPingPong(p, bench.ExtPollOnGPU, 1024, 100, 0).Counters
		sysInstr, devInstr = direct.InstrExecuted, poll.InstrExecuted
		devWrites, sysReads = poll.SysmemWrites32B, direct.SysmemReads32B
	}
	b.ReportMetric(float64(sysInstr), "sysmem_instr")
	b.ReportMetric(float64(devInstr), "devmem_instr")
	b.ReportMetric(float64(devWrites), "devmem_sysW")
	b.ReportMetric(float64(sysReads), "sysmem_sysR")
}

// BenchmarkFig3PollingSplit regenerates the put-vs-polling decomposition
// at small and large payloads (paper Fig. 3).
func BenchmarkFig3PollingSplit(b *testing.B) {
	p := cluster.Default()
	var sysSmall, devSmall, sysBig float64
	for i := 0; i < b.N; i++ {
		sysSmall = bench.ExtollPingPong(p, bench.ExtDirect, 1024, 10, 2).Ratio()
		devSmall = bench.ExtollPingPong(p, bench.ExtPollOnGPU, 1024, 10, 2).Ratio()
		sysBig = bench.ExtollPingPong(p, bench.ExtDirect, 4<<20, 2, 1).Ratio()
	}
	b.ReportMetric(sysSmall, "sysmem_1KiB_ratio")
	b.ReportMetric(devSmall, "devmem_1KiB_ratio")
	b.ReportMetric(sysBig, "sysmem_4MiB_ratio")
}

// BenchmarkFig4aIBLatency regenerates the InfiniBand latency comparison at
// the 1 KiB cross-section (paper Fig. 4a).
func BenchmarkFig4aIBLatency(b *testing.B) {
	p := cluster.Default()
	var gpuQ, hostQ, assisted, host float64
	for i := 0; i < b.N; i++ {
		gpuQ = bench.IBPingPong(p, bench.IBBufOnGPU, 1024, 10, 2).HalfRTT.Microseconds()
		hostQ = bench.IBPingPong(p, bench.IBBufOnHost, 1024, 10, 2).HalfRTT.Microseconds()
		assisted = bench.IBPingPong(p, bench.IBAssisted, 1024, 10, 2).HalfRTT.Microseconds()
		host = bench.IBPingPong(p, bench.IBHostControlled, 1024, 10, 2).HalfRTT.Microseconds()
	}
	b.ReportMetric(gpuQ, "bufOnGPU_us")
	b.ReportMetric(hostQ, "bufOnHost_us")
	b.ReportMetric(assisted, "assisted_us")
	b.ReportMetric(host, "host_us")
	b.ReportMetric(gpuQ/host, "gpu/host")
}

// BenchmarkFig4bIBBandwidth regenerates the InfiniBand bandwidth peak and
// collapse (paper Fig. 4b).
func BenchmarkFig4bIBBandwidth(b *testing.B) {
	p := cluster.Default()
	var peak, gpu, collapsed float64
	for i := 0; i < b.N; i++ {
		peak = bench.IBStream(p, bench.IBHostControlled, 256<<10, 16).BytesPerSec
		gpu = bench.IBStream(p, bench.IBBufOnGPU, 16<<10, 24).BytesPerSec
		collapsed = bench.IBStream(p, bench.IBHostControlled, 4<<20, 6).BytesPerSec
	}
	b.ReportMetric(peak/1e6, "host_peak_MB/s")
	b.ReportMetric(gpu/1e6, "gpu_16KiB_MB/s")
	b.ReportMetric(collapsed/1e6, "host_4MiB_MB/s")
}

// BenchmarkFig5IBMessageRate regenerates the InfiniBand message-rate
// endpoints (paper Fig. 5) — GPU agents approach the host rate at 32 QPs.
func BenchmarkFig5IBMessageRate(b *testing.B) {
	p := cluster.Default()
	var blocks1, blocks32, host32, assisted32 float64
	for i := 0; i < b.N; i++ {
		blocks1 = bench.IBMessageRate(p, bench.RateBlocks, 1, 80).MsgsPerSec
		blocks32 = bench.IBMessageRate(p, bench.RateBlocks, 32, 80).MsgsPerSec
		host32 = bench.IBMessageRate(p, bench.RateHostControlled, 32, 80).MsgsPerSec
		assisted32 = bench.IBMessageRate(p, bench.RateAssisted, 32, 80).MsgsPerSec
	}
	b.ReportMetric(blocks1, "blocks1_msg/s")
	b.ReportMetric(blocks32, "blocks32_msg/s")
	b.ReportMetric(host32, "host32_msg/s")
	b.ReportMetric(assisted32, "assisted32_msg/s")
}

// BenchmarkTable2IBCounters regenerates the buffer-placement counter
// comparison and single-op costs (paper Table II).
func BenchmarkTable2IBCounters(b *testing.B) {
	p := cluster.Default()
	var hostInstr, gpuInstr, post, poll uint64
	for i := 0; i < b.N; i++ {
		host := bench.IBPingPong(p, bench.IBBufOnHost, 1024, 100, 0).Counters
		gpu := bench.IBPingPong(p, bench.IBBufOnGPU, 1024, 100, 0).Counters
		hostInstr, gpuInstr = host.InstrExecuted, gpu.InstrExecuted
		post, poll = bench.IBSingleOpInstr(p)
	}
	b.ReportMetric(float64(hostInstr), "bufHost_instr")
	b.ReportMetric(float64(gpuInstr), "bufGPU_instr")
	b.ReportMetric(float64(post), "post_send_instr")
	b.ReportMetric(float64(poll), "poll_cq_instr")
}

// ---- ablation benchmarks (design choices called out in DESIGN.md) ----

// BenchmarkAblationEndianness quantifies the big-endian conversion
// overhead the static-field optimization removes (§VI claim 2).
func BenchmarkAblationEndianness(b *testing.B) {
	p := cluster.Default()
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with, without = bench.AblationEndianness(p)
	}
	b.ReportMetric(float64(with), "with_opt_instr")
	b.ReportMetric(float64(without), "without_opt_instr")
}

// BenchmarkAblationCollectivePost quantifies warp-collective descriptor
// generation versus the single-thread APIs (§VI claim 2).
func BenchmarkAblationCollectivePost(b *testing.B) {
	p := cluster.Default()
	var ex, ib bench.CollectiveCost
	for i := 0; i < b.N; i++ {
		ex = bench.AblationCollectivePostExtoll(p)
		ib = bench.AblationCollectivePostIB(p)
	}
	b.ReportMetric(float64(ex.SingleTxns), "extoll_single_txns")
	b.ReportMetric(float64(ex.CollectiveTxns), "extoll_warp_txns")
	b.ReportMetric(float64(ib.SingleInstr), "ib_single_instr")
	b.ReportMetric(float64(ib.CollectiveInstr), "ib_warp_instr")
}

// BenchmarkAblationNotifPlacement quantifies moving EXTOLL notification
// rings into GPU memory (§VI claim 3).
func BenchmarkAblationNotifPlacement(b *testing.B) {
	p := cluster.Default()
	var host, dev bench.LatencyResult
	for i := 0; i < b.N; i++ {
		host, dev = bench.AblationNotifPlacement(p, 1024)
	}
	b.ReportMetric(host.HalfRTT.Microseconds(), "host_rings_us")
	b.ReportMetric(dev.HalfRTT.Microseconds(), "dev_rings_us")
}

// BenchmarkAblationP2PCollapse isolates the PCIe peer-to-peer read
// anomaly behind the large-message bandwidth droop.
func BenchmarkAblationP2PCollapse(b *testing.B) {
	p := cluster.Default()
	var with, without bench.BandwidthResult
	for i := 0; i < b.N; i++ {
		with, without = bench.AblationP2PCollapse(p)
	}
	b.ReportMetric(with.BytesPerSec/1e6, "with_collapse_MB/s")
	b.ReportMetric(without.BytesPerSec/1e6, "without_MB/s")
}

// BenchmarkMsgVsPut quantifies the §II-B two-sided overhead against
// one-sided puts at 1 KiB.
func BenchmarkMsgVsPut(b *testing.B) {
	p := cluster.Default()
	var two, one float64
	for i := 0; i < b.N; i++ {
		two = bench.MsgPingPong(p, 1024, 8, 2).HalfRTT.Microseconds()
		one = bench.IBPingPong(p, bench.IBBufOnGPU, 1024, 8, 2).HalfRTT.Microseconds()
	}
	b.ReportMetric(two, "sendrecv_us")
	b.ReportMetric(one, "put_us")
	b.ReportMetric((two/one-1)*100, "overhead_%")
}

// BenchmarkStagedVsGPUDirect measures the §II staging trade-off at the
// crossover sizes.
func BenchmarkStagedVsGPUDirect(b *testing.B) {
	p := cluster.Default()
	var d64, s64, d4m, s4m float64
	for i := 0; i < b.N; i++ {
		d64 = bench.ExtollStream(p, bench.ExtHostControlled, 64<<10, 10).BytesPerSec
		s64 = bench.StagedStream(p, 64<<10, 10).BytesPerSec
		d4m = bench.ExtollStream(p, bench.ExtHostControlled, 4<<20, 8).BytesPerSec
		s4m = bench.StagedStream(p, 4<<20, 8).BytesPerSec
	}
	b.ReportMetric(d64/1e6, "gpudirect_64KiB_MB/s")
	b.ReportMetric(s64/1e6, "staged_64KiB_MB/s")
	b.ReportMetric(d4m/1e6, "gpudirect_4MiB_MB/s")
	b.ReportMetric(s4m/1e6, "staged_4MiB_MB/s")
}

// BenchmarkShmemPrimitives tracks the GPU-SHMEM layer's core costs.
func BenchmarkShmemPrimitives(b *testing.B) {
	p := cluster.Default()
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	var barrierUs, pingUs float64
	for i := 0; i < b.N; i++ {
		w := shmem.NewWorld(p, 1<<20)
		flag := w.Malloc(16)
		const rounds = 10
		var bSum, pSum int64
		w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
			// Barrier cost.
			s := int64(warp.Now())
			for r := 0; r < rounds; r++ {
				pe.BarrierAll(warp)
			}
			bSum = int64(warp.Now()) - s
			// PutImm+WaitUntil ping-pong.
			mine, theirs := flag, flag+8
			s = int64(warp.Now())
			for r := uint64(1); r <= rounds; r++ {
				if pe.Rank == 0 {
					pe.PutImmTo(warp, 1, theirs, r)
					pe.QuietAll(warp)
					pe.WaitUntil(warp, mine, r)
				} else {
					pe.WaitUntil(warp, theirs, r)
					pe.PutImmTo(warp, 0, mine, r)
					pe.QuietAll(warp)
				}
			}
			if pe.Rank == 0 {
				pSum = int64(warp.Now()) - s
			}
		})
		w.Shutdown()
		barrierUs = float64(bSum) / rounds / 1e6
		pingUs = float64(pSum) / rounds / 2 / 1e6
	}
	b.ReportMetric(barrierUs, "barrier_us")
	b.ReportMetric(pingUs, "halfRTT_us")
}
