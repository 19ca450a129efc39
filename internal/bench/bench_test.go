package bench

import (
	"fmt"
	"testing"

	"putget/internal/cluster"
	"putget/internal/sim"
	"putget/internal/transport"
)

// ---- EXTOLL latency ----

func TestExtollPingPongAllModesComplete(t *testing.T) {
	p := cluster.Default()
	for _, mode := range []ControlMode{ExtDirect, ExtPollOnGPU, ExtAssisted, ExtHostControlled} {
		res := ExtollPingPong(p, mode, 1024, 5, 2)
		if res.HalfRTT <= 0 {
			t.Fatalf("%v: nonpositive latency", mode)
		}
		if res.HalfRTT > 100*sim.Microsecond {
			t.Fatalf("%v: implausible latency %v", mode, res.HalfRTT)
		}
	}
}

func TestExtollLatencyOrderingSmallMessages(t *testing.T) {
	// §V-A.1: host < pollOnGPU < assisted < direct for small messages;
	// direct ≈ 2× host.
	p := cluster.Default()
	lat := map[ControlMode]sim.Duration{}
	for _, mode := range []ControlMode{ExtDirect, ExtPollOnGPU, ExtAssisted, ExtHostControlled} {
		lat[mode] = ExtollPingPong(p, mode, 16, 10, 2).HalfRTT
	}
	if !(lat[ExtHostControlled] < lat[ExtPollOnGPU] &&
		lat[ExtPollOnGPU] < lat[ExtAssisted] &&
		lat[ExtAssisted] < lat[ExtDirect]) {
		t.Fatalf("latency ordering wrong: host=%v pollGPU=%v assisted=%v direct=%v",
			lat[ExtHostControlled], lat[ExtPollOnGPU], lat[ExtAssisted], lat[ExtDirect])
	}
	ratio := float64(lat[ExtDirect]) / float64(lat[ExtHostControlled])
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("direct/host ratio = %.2f, want ≈2", ratio)
	}
}

func TestExtollLatencyGrowsWithSize(t *testing.T) {
	p := cluster.Default()
	small := ExtollPingPong(p, ExtHostControlled, 64, 5, 1).HalfRTT
	large := ExtollPingPong(p, ExtHostControlled, 256<<10, 3, 1).HalfRTT
	if large < 10*small {
		t.Fatalf("256KiB (%v) should dwarf 64B (%v)", large, small)
	}
}

func TestExtollPollSplitRatios(t *testing.T) {
	// Fig. 3 at small sizes: sysmem polling ≈10× the put time, device
	// polling ≈2.5×.
	p := cluster.Default()
	direct := ExtollPingPong(p, ExtDirect, 1024, 10, 2)
	poll := ExtollPingPong(p, ExtPollOnGPU, 1024, 10, 2)
	if direct.Ratio() < 4 {
		t.Fatalf("sysmem polling ratio = %.1f, want ≫1 (paper ≈10)", direct.Ratio())
	}
	if poll.Ratio() >= direct.Ratio() {
		t.Fatalf("device polling ratio (%.1f) should undercut sysmem (%.1f)",
			poll.Ratio(), direct.Ratio())
	}
	if poll.Ratio() < 1 {
		t.Fatalf("device polling ratio = %.1f, want >1", poll.Ratio())
	}
}

func TestExtollCountersTable1Shape(t *testing.T) {
	// Table I structure: device polling does 3 sysmem writes and no
	// sysmem reads per iteration; sysmem polling does dozens of reads and
	// has zero L2 hits; device polling is L2-hit dominated and needs
	// fewer instructions.
	p := cluster.Default()
	const iters = 100
	direct := ExtollPingPong(p, ExtDirect, 1024, iters, 0).Counters
	poll := ExtollPingPong(p, ExtPollOnGPU, 1024, iters, 0).Counters

	if poll.SysmemReads32B != 0 {
		t.Fatalf("device polling: %d sysmem reads, want 0", poll.SysmemReads32B)
	}
	if got := poll.SysmemWrites32B; got != 3*iters {
		t.Fatalf("device polling: %d sysmem writes, want exactly 3/iteration", got)
	}
	if direct.SysmemReads32B < 10*iters {
		t.Fatalf("sysmem polling: only %d sysmem reads over %d iters", direct.SysmemReads32B, iters)
	}
	if direct.L2ReadHits != 0 {
		t.Fatalf("sysmem polling: %d L2 hits, want 0", direct.L2ReadHits)
	}
	if poll.L2ReadHits == 0 {
		t.Fatal("device polling produced no L2 hits")
	}
	if direct.InstrExecuted <= poll.InstrExecuted {
		t.Fatalf("sysmem polling (%d instr) should need more instructions than device polling (%d)",
			direct.InstrExecuted, poll.InstrExecuted)
	}
}

// ---- EXTOLL bandwidth ----

func TestExtollStreamBandwidthShape(t *testing.T) {
	p := cluster.Default()
	// Host-controlled peaks near the P2P/wire limit at 256KiB...
	peak := ExtollStream(p, ExtHostControlled, 256<<10, 16)
	if peak.BytesPerSec < 0.6e9 || peak.BytesPerSec > 1.1e9 {
		t.Fatalf("peak bandwidth = %.3g B/s, want ≈0.8-0.9e9", peak.BytesPerSec)
	}
	// ...and collapses past 1 MiB (the PCIe P2P read anomaly).
	big := ExtollStream(p, ExtHostControlled, 4<<20, 6)
	if big.BytesPerSec > 0.5e9 {
		t.Fatalf("no P2P collapse: %.3g B/s at 4MiB", big.BytesPerSec)
	}
	// Small messages are overhead-dominated.
	small := ExtollStream(p, ExtHostControlled, 64, 64)
	if small.BytesPerSec > 0.2e9 {
		t.Fatalf("64B bandwidth implausibly high: %.3g", small.BytesPerSec)
	}
}

func TestExtollStreamGPUSlowerMidSizes(t *testing.T) {
	p := cluster.Default()
	host := ExtollStream(p, ExtHostControlled, 16<<10, 24)
	gpu := ExtollStream(p, ExtDirect, 16<<10, 24)
	if gpu.BytesPerSec >= host.BytesPerSec {
		t.Fatalf("GPU-controlled (%.3g) should trail host-controlled (%.3g) at 16KiB",
			gpu.BytesPerSec, host.BytesPerSec)
	}
}

func TestExtollP2PCollapseAblation(t *testing.T) {
	p := cluster.Default()
	p.P2PCollapseOff = true
	big := ExtollStream(p, ExtHostControlled, 4<<20, 6)
	if big.BytesPerSec < 0.6e9 {
		t.Fatalf("with collapse disabled, 4MiB should stream fast; got %.3g", big.BytesPerSec)
	}
}

// ---- EXTOLL message rate ----

func TestExtollMessageRateOrderingAndScaling(t *testing.T) {
	p := cluster.Default()
	const perPair = 60
	host1 := ExtollMessageRate(p, RateHostControlled, 1, perPair)
	host32 := ExtollMessageRate(p, RateHostControlled, 32, perPair)
	blocks32 := ExtollMessageRate(p, RateBlocks, 32, perPair)
	kernels32 := ExtollMessageRate(p, RateKernels, 32, perPair)
	assisted4 := ExtollMessageRate(p, RateAssisted, 4, perPair)
	assisted32 := ExtollMessageRate(p, RateAssisted, 32, perPair)

	if host32.MsgsPerSec <= host1.MsgsPerSec {
		t.Fatalf("host rate must scale with pairs: %.3g → %.3g", host1.MsgsPerSec, host32.MsgsPerSec)
	}
	// "both CPU-controlled data transfers are still faster"
	if blocks32.MsgsPerSec >= host32.MsgsPerSec {
		t.Fatalf("GPU blocks (%.3g) should trail host (%.3g) at 32 pairs",
			blocks32.MsgsPerSec, host32.MsgsPerSec)
	}
	// blocks ≈ kernels
	rel := blocks32.MsgsPerSec / kernels32.MsgsPerSec
	if rel < 0.6 || rel > 1.6 {
		t.Fatalf("blocks (%.3g) and kernels (%.3g) should be similar", blocks32.MsgsPerSec, kernels32.MsgsPerSec)
	}
	// assisted saturates: 32 pairs no better than ~4.
	if assisted32.MsgsPerSec > 1.5*assisted4.MsgsPerSec {
		t.Fatalf("assisted should be flat beyond 4 pairs: %.3g vs %.3g",
			assisted4.MsgsPerSec, assisted32.MsgsPerSec)
	}
}

// ---- IB latency ----

func TestIBPingPongAllModesComplete(t *testing.T) {
	p := cluster.Default()
	for _, mode := range []ControlMode{IBBufOnGPU, IBBufOnHost, IBAssisted, IBHostControlled} {
		res := IBPingPong(p, mode, 1024, 5, 2)
		if res.HalfRTT <= 0 || res.HalfRTT > 200*sim.Microsecond {
			t.Fatalf("%v: implausible latency %v", mode, res.HalfRTT)
		}
	}
}

func TestIBLatencyGPUFarAboveHost(t *testing.T) {
	// §V-B.1: GPU-initiated latency is much higher than CPU-initiated for
	// small messages; buffer placement makes only a small difference.
	p := cluster.Default()
	gpuQ := IBPingPong(p, IBBufOnGPU, 16, 10, 2).HalfRTT
	hostQ := IBPingPong(p, IBBufOnHost, 16, 10, 2).HalfRTT
	host := IBPingPong(p, IBHostControlled, 16, 10, 2).HalfRTT
	assisted := IBPingPong(p, IBAssisted, 16, 10, 2).HalfRTT

	if float64(gpuQ) < 2.5*float64(host) {
		t.Fatalf("GPU-controlled (%v) should be ≫ host-controlled (%v)", gpuQ, host)
	}
	diff := float64(gpuQ) / float64(hostQ)
	if diff < 0.7 || diff > 1.4 {
		t.Fatalf("queue placement should make a small difference: %v vs %v", gpuQ, hostQ)
	}
	if !(host < assisted && assisted < gpuQ) {
		t.Fatalf("ordering wrong: host=%v assisted=%v gpu=%v", host, assisted, gpuQ)
	}
}

// ---- IB bandwidth ----

func TestIBStreamBandwidthShape(t *testing.T) {
	p := cluster.Default()
	peak := IBStream(p, IBHostControlled, 256<<10, 16)
	if peak.BytesPerSec < 0.7e9 || peak.BytesPerSec > 1.3e9 {
		t.Fatalf("IB peak = %.3g B/s, want ≈1e9 (P2P limited)", peak.BytesPerSec)
	}
	big := IBStream(p, IBHostControlled, 4<<20, 6)
	if big.BytesPerSec > 0.5e9 {
		t.Fatalf("no P2P collapse on IB: %.3g B/s at 4MiB", big.BytesPerSec)
	}
	gpu := IBStream(p, IBBufOnGPU, 256<<10, 16)
	if gpu.BytesPerSec < 0.5*peak.BytesPerSec {
		t.Fatalf("GPU-controlled IB bandwidth too low: %.3g vs %.3g", gpu.BytesPerSec, peak.BytesPerSec)
	}
}

// ---- IB message rate ----

func TestIBMessageRateGPUCatchesUpAt32(t *testing.T) {
	// §V-B.2: with one QP per block the WR generation parallelizes
	// perfectly; at 32 connections the GPU nearly matches the host.
	p := cluster.Default()
	const perPair = 50
	host32 := IBMessageRate(p, RateHostControlled, 32, perPair)
	blocks32 := IBMessageRate(p, RateBlocks, 32, perPair)
	blocks1 := IBMessageRate(p, RateBlocks, 1, perPair)

	if blocks32.MsgsPerSec < 0.4*host32.MsgsPerSec {
		t.Fatalf("GPU at 32 QPs (%.3g) should approach host (%.3g)",
			blocks32.MsgsPerSec, host32.MsgsPerSec)
	}
	if blocks32.MsgsPerSec < 8*blocks1.MsgsPerSec {
		t.Fatalf("GPU rate should scale with QPs: %.3g → %.3g", blocks1.MsgsPerSec, blocks32.MsgsPerSec)
	}
	assisted4 := IBMessageRate(p, RateAssisted, 4, perPair)
	assisted16 := IBMessageRate(p, RateAssisted, 16, perPair)
	if assisted16.MsgsPerSec > 1.5*assisted4.MsgsPerSec {
		t.Fatalf("assisted should be flat beyond 4 pairs: %.3g vs %.3g",
			assisted4.MsgsPerSec, assisted16.MsgsPerSec)
	}
}

func TestIBBlocksVsKernelsSimilar(t *testing.T) {
	p := cluster.Default()
	blocks := IBMessageRate(p, RateBlocks, 8, 40)
	kernels := IBMessageRate(p, RateKernels, 8, 40)
	rel := blocks.MsgsPerSec / kernels.MsgsPerSec
	if rel < 0.6 || rel > 1.6 {
		t.Fatalf("blocks (%.3g) vs kernels (%.3g) should be similar", blocks.MsgsPerSec, kernels.MsgsPerSec)
	}
}

// ---- ablations ----

func TestIBSingleOpInstrMatchesPaper(t *testing.T) {
	post, poll := IBSingleOpInstr(cluster.Default())
	if post < 420 || post > 460 {
		t.Fatalf("post_send = %d instr, paper: 442", post)
	}
	if poll < 260 || poll > 300 {
		t.Fatalf("poll_cq = %d instr, paper: 283", poll)
	}
}

func TestAblationEndianness(t *testing.T) {
	withOpt, without := AblationEndianness(cluster.Default())
	if without <= withOpt || without-withOpt < 100 {
		t.Fatalf("static-field optimization saves %d instr (from %d), want ≥100", without-withOpt, without)
	}
}

func TestAblationCollectivePosts(t *testing.T) {
	ex := AblationCollectivePostExtoll(cluster.Default())
	if ex.CollectiveTxns >= ex.SingleTxns || ex.CollectiveInstr > ex.SingleInstr {
		t.Fatalf("EXTOLL collective post not cheaper: %+v", ex)
	}
	ib := AblationCollectivePostIB(cluster.Default())
	if ib.CollectiveInstr >= ib.SingleInstr/2 {
		t.Fatalf("IB collective post should halve instructions: %+v", ib)
	}
	if ib.CollectiveTxns >= ib.SingleTxns {
		t.Fatalf("IB collective post should cut PCIe transactions: %+v", ib)
	}
}

func TestAblationNotifPlacement(t *testing.T) {
	host, dev := AblationNotifPlacement(cluster.Default(), 1024)
	// Claim 3: rings in GPU memory remove the PCIe polling round trips...
	if dev.Counters.SysmemReads32B >= host.Counters.SysmemReads32B {
		t.Fatalf("device rings should eliminate sysmem poll reads: %d vs %d",
			dev.Counters.SysmemReads32B, host.Counters.SysmemReads32B)
	}
	// ...and lower the latency of the notification-polling path.
	if dev.HalfRTT >= host.HalfRTT {
		t.Fatalf("device rings should cut latency: %v vs %v", dev.HalfRTT, host.HalfRTT)
	}
}

func TestAblationP2PCollapseBandwidth(t *testing.T) {
	with, without := AblationP2PCollapse(cluster.Default())
	if without.BytesPerSec < 2*with.BytesPerSec {
		t.Fatalf("collapse should at least halve 4MiB bandwidth: %.3g vs %.3g",
			with.BytesPerSec, without.BytesPerSec)
	}
}

func TestMsgVsPutOverheadPositive(t *testing.T) {
	// §II-B: two-sided semantics cost more than one-sided put at every
	// size (tag matching + eager buffering), with the gap shrinking once
	// the rendezvous protocol kicks in.
	p := cluster.Default()
	small2 := MsgPingPong(p, 1024, 8, 2).HalfRTT
	small1 := IBPingPong(p, IBBufOnGPU, 1024, 8, 2).HalfRTT
	if small2 <= small1 {
		t.Fatalf("send/recv (%v) should exceed put (%v) at 1KiB", small2, small1)
	}
	big2 := MsgPingPong(p, 65536, 5, 1).HalfRTT
	big1 := IBPingPong(p, IBBufOnGPU, 65536, 5, 1).HalfRTT
	smallOver := float64(small2)/float64(small1) - 1
	bigOver := float64(big2)/float64(big1) - 1
	if bigOver >= smallOver {
		t.Fatalf("rendezvous should amortize: overhead %.0f%% at 1KiB vs %.0f%% at 64KiB",
			smallOver*100, bigOver*100)
	}
}

func TestASICComparisonRuns(t *testing.T) {
	out := ASICComparison()
	if len(out) < 100 {
		t.Fatalf("ASIC comparison output too short: %q", out)
	}
}

func TestStagedCrossover(t *testing.T) {
	// §II background: GPUDirect wins while the P2P path is healthy;
	// host staging overtakes past the 1MiB collapse.
	p := cluster.Default()
	dSmall := ExtollStream(p, ExtHostControlled, 64<<10, 10).BytesPerSec
	sSmall := StagedStream(p, 64<<10, 10).BytesPerSec
	if sSmall >= dSmall {
		t.Fatalf("staged (%.3g) should lose to GPUDirect (%.3g) at 64KiB", sSmall, dSmall)
	}
	dBig := ExtollStream(p, ExtHostControlled, 4<<20, 8).BytesPerSec
	sBig := StagedStream(p, 4<<20, 8).BytesPerSec
	if sBig <= dBig {
		t.Fatalf("staged (%.3g) should beat collapsed GPUDirect (%.3g) at 4MiB", sBig, dBig)
	}
	// Latency: staging always pays the two copies.
	dLat := ExtollPingPong(p, ExtHostControlled, 64, 5, 1).HalfRTT
	sLat := StagedPingPong(p, 64, 5, 1).HalfRTT
	if sLat <= dLat {
		t.Fatalf("staged latency (%v) should exceed GPUDirect (%v)", sLat, dLat)
	}
}

func TestModernShrinksGPUGap(t *testing.T) {
	old, now := cluster.Default(), cluster.Modern()
	oldGap := float64(ExtollPingPong(old, ExtDirect, 16, 8, 2).HalfRTT) /
		float64(ExtollPingPong(old, ExtHostControlled, 16, 8, 2).HalfRTT)
	newGap := float64(ExtollPingPong(now, ExtDirect, 16, 8, 2).HalfRTT) /
		float64(ExtollPingPong(now, ExtHostControlled, 16, 8, 2).HalfRTT)
	if newGap >= oldGap {
		t.Fatalf("modern hardware should shrink the GPU gap: %.2f -> %.2f", oldGap, newGap)
	}
	if newGap <= 1.0 {
		t.Fatalf("the gap should survive (%.2f): descriptor generation is still serial", newGap)
	}
}

// TestMessageRateCellAllocs guards the EXTOLL hostControlled 32x80
// message-rate cell on allocs/op. The ceiling is 1.15x the count
// measured with posted writes copying their bytes into pooled ops (5,716
// with a heap copy per WR burst and notification; 15,939 with a closure
// per write).
func TestMessageRateCellAllocs(t *testing.T) {
	got := testing.AllocsPerRun(1, func() {
		ExtollMessageRate(cluster.Default(), RateHostControlled, 32, 80)
	})
	if limit := 1.15 * 599; got > limit {
		t.Errorf("msgrate/extoll: %.0f allocs/op, ceiling %.0f", got, limit)
	}
}

// TestHostSpinEventCounts guards host poll elision on executed events, a
// count that does not depend on the machine: a hostControlled ping-pong
// spins the CPU on host-RAM completion rings, and with one event per
// probe the 64 KiB cell ran 1,624,704 events on EXTOLL and 1,022,915 on
// IB. Elided, it runs 14,568 and 13,008.
func TestHostSpinEventCounts(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindExtoll, transport.KindIB} {
		r := PingPong(cluster.Default(), kind, transport.HostControlled, 64<<10, 250, 10)
		if limit := uint64(20000); r.Events > limit {
			t.Errorf("%v: %d events, ceiling %d", kind, r.Events, limit)
		}
	}
}

// TestMessageRateProcCounts pins executed events exactly and caps
// handoffs on the 32-pair message-rate cells whose warps poll: the
// GPU-driven blocks cell on both fabrics and the assisted cell on both,
// five messages per pair. The ceilings are 1.15x the counts with
// callback-form warp spins; with the explicit probe loops the cells
// switched 5,624, 18,169, 10,346 and 10,981 times. Each spawns one warp
// per pair, and the assisted cell one CPU thread besides.
func TestMessageRateProcCounts(t *testing.T) {
	for _, tc := range []struct {
		kind                      transport.Kind
		method                    RateMethod
		events, spawned, handoffs uint64
	}{
		{transport.KindExtoll, RateBlocks, 10281, 32, 4028},
		{transport.KindIB, RateBlocks, 20628, 32, 4257},
		{transport.KindExtoll, RateAssisted, 21029, 33, 2382},
		{transport.KindIB, RateAssisted, 22259, 33, 2250},
	} {
		r := MessageRate(cluster.Default(), tc.kind, tc.method, 32, 5)
		name := fmt.Sprintf("%v %v", tc.kind, tc.method)
		if r.Events != tc.events {
			t.Errorf("%s: %d events executed, want %d", name, r.Events, tc.events)
		}
		if r.Spawned != tc.spawned {
			t.Errorf("%s: %d procs spawned, want %d", name, r.Spawned, tc.spawned)
		}
		if limit := tc.handoffs * 115 / 100; r.Handoffs > limit {
			t.Errorf("%s: %d handoffs, ceiling %d", name, r.Handoffs, limit)
		}
	}
}

// TestEngineProcCounts pins process spawns and caps handoffs, the
// switches into a process coroutine (sim.Engine.Spawned/Handoffs),
// counts that do not depend on the machine, on a CPU-driven and a
// GPU-driven 64 KiB ping-pong per fabric, and on a lossy CPU-driven
// 1 KiB one per fabric whose reliability protocols retransmit (a 64 KiB
// EXTOLL put outlasts the retransmission timer). Hardware is engine
// callbacks, so only software spawns: the ping-pong's two CPU threads or
// warps, the same number for 10 exchanges as for 260. Handoffs are
// warp and CPU-thread wakeups that another event precedes; a sleep whose
// wakeup is the next event wakes in place and does not count. The
// ceilings are 1.15x the measured counts; the GPU-driven ones are those
// with callback-form warp spins (127,013 and 2,604 with run-ahead alone,
// 129,092 and 3,125 before it). Executed events are pinned exactly:
// hardware callbacks, in-place wakes, run-ahead replays and spin stages
// count and order every event as a queued wake event would.
func TestEngineProcCounts(t *testing.T) {
	lossy := func(p *cluster.Params) {
		p.FaultInject, p.FaultSeed, p.FaultDropRate = true, 3, 0.02
	}
	for _, tc := range []struct {
		kind             transport.Kind
		mode             ControlMode
		size             int
		faults           func(*cluster.Params)
		handoffs, events uint64
	}{
		{transport.KindExtoll, ExtHostControlled, 64 << 10, nil, 1043, 14568},
		{transport.KindExtoll, ExtDirect, 64 << 10, nil, 7278, 627265},
		{transport.KindIB, IBHostControlled, 64 << 10, nil, 2083, 13008},
		{transport.KindIB, IBBufOnGPU, 64 << 10, nil, 1564, 696292},
		{transport.KindExtoll, ExtHostControlled, 1 << 10, lossy, 1060, 16748},
		{transport.KindIB, IBHostControlled, 1 << 10, lossy, 2083, 15583},
	} {
		p := cluster.Default()
		name := fmt.Sprintf("%v %v", tc.kind, tc.mode)
		if tc.faults != nil {
			tc.faults(&p)
			name += " lossy"
		}
		r := PingPong(p, tc.kind, tc.mode, tc.size, 250, 10)
		if r.Spawned != 2 {
			t.Errorf("%s: %d procs spawned, want 2", name, r.Spawned)
		}
		if limit := tc.handoffs * 115 / 100; r.Handoffs > limit {
			t.Errorf("%s: %d handoffs, ceiling %d", name, r.Handoffs, limit)
		}
		if r.Events != tc.events {
			t.Errorf("%s: %d events executed, want %d", name, r.Events, tc.events)
		}
		if short := PingPong(p, tc.kind, tc.mode, tc.size, 5, 5); short.Spawned != r.Spawned {
			t.Errorf("%s: %d procs spawned for 10 exchanges, %d for 260: a per-operation spawn",
				name, short.Spawned, r.Spawned)
		}
	}
}
