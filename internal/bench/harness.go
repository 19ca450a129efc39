//putget:allow boundedwait -- generic measurement harness: ping-pong/stream/msgrate loops time completions that the fault-free rig guarantees; a timeout branch in the hot loop would distort the very instruction counts being measured (fault experiments use the bounded variants in faults.go's sweeps instead)

package bench

import (
	"bytes"
	"fmt"

	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/sim"
	"putget/internal/transport"
)

// This file is the generic benchmark harness: one driver per experiment
// shape (ping-pong latency, streaming bandwidth, message rate), each
// parameterized by (fabric kind, control mode) and written entirely
// against the transport.Endpoint API. It replaces the former per-fabric
// driver pairs; each mode arm below issues the same Endpoint calls for
// both fabrics, and the adapters charge each fabric's exact control-path
// costs, so results are identical to the pre-unification drivers.

// connHint returns the per-mode Connect hint. EXTOLL ignores ring sizes;
// the IB numbers are the sizes the paper's drivers used (total carries
// the receive-ring demand of the host-controlled ping-pong, which reaps
// one write-with-immediate per exchange).
func connHint(ext bool, mode ControlMode, totalRecvs int) transport.ConnHint {
	hint := transport.ConnHint{QueuesOnGPU: mode == transport.QueuesOnGPU}
	if mode == transport.HostControlled && !ext {
		hint.RecvEntries = totalRecvs
	}
	return hint
}

// PingPong runs the paper's latency experiment (§V-A.1, §V-B.1): `iters`
// measured ping-pong exchanges of `size` bytes after `warmup` unmeasured
// ones, between the two GPUs, under the given control mode. The returned
// counters cover GPU A over the measured iterations.
func PingPong(p cluster.Params, kind transport.Kind, mode ControlMode, size, iters, warmup int) LatencyResult {
	if !transport.Supports(kind, mode) {
		panic(fmt.Sprintf("bench: %s does not support %s", kind, mode))
	}
	buf := uint64(size)
	if buf < 8 {
		buf = 8
	}
	r := newRig(kind, p, buf)
	defer r.tb.Shutdown()
	ext := kind == transport.KindExtoll
	total := warmup + iters
	mask := seqMask(size)
	off := memspace.Addr(stampOff(size))

	epA, epB := r.tr.Connect(0, connHint(ext, mode, total+8))
	var payload []byte
	if ext {
		payload = r.fillPayload(size)
	}

	var tStart, tEnd sim.Time
	var putSum, pollSum sim.Duration

	switch mode {
	case transport.Direct, transport.PollOnGPU:
		// EXTOLL GPU-controlled: direct reaps notifications, pollOnGPU
		// watches the last received payload word in device memory instead.
		flags := 0
		if mode == transport.Direct {
			flags = transport.FlagLocalComp | transport.FlagRemoteComp
		}
		doneA := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 1; i <= total; i++ {
				if i == warmup+1 {
					r.tb.A.GPU.ResetCounters()
					tStart = w.Now()
				}
				t0 := w.Now()
				if mode == transport.PollOnGPU {
					w.StGlobalU64(r.aSend+off, uint64(i))
				}
				epA.DevPut(w, r.aSendR, 0, r.bRecvR, 0, size, flags)
				t1 := w.Now()
				if mode == transport.Direct {
					epA.DevWaitComplete(w, transport.CompLocal)
					epA.DevWaitComplete(w, transport.CompRemote) // pong arrived
				} else {
					w.PollGlobalU64Masked(r.aRecv+off, uint64(i)&mask, mask)
				}
				t2 := w.Now()
				if i > warmup {
					putSum += t1.Sub(t0)
					pollSum += t2.Sub(t1)
				}
			}
			tEnd = w.Now()
		})
		doneB := r.tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 1; i <= total; i++ {
				if mode == transport.Direct {
					epB.DevWaitComplete(w, transport.CompRemote) // ping arrived
				} else {
					w.PollGlobalU64Masked(r.bRecv+off, uint64(i)&mask, mask)
					w.StGlobalU64(r.bSend+off, uint64(i))
				}
				epB.DevPut(w, r.bSendR, 0, r.aRecvR, 0, size, flags)
				if mode == transport.Direct {
					epB.DevWaitComplete(w, transport.CompLocal)
				}
			}
		})
		runTestbed(r.tb)
		mustDone(doneA, fmt.Sprintf("%s ping-pong kernel A", kind))
		mustDone(doneB, fmt.Sprintf("%s ping-pong kernel B", kind))

	case transport.QueuesOnGPU, transport.QueuesOnHost:
		// IB GPU-controlled: the pong is detected by polling the last
		// received element in device memory (the paper avoids
		// write-with-immediate on the GPU); only queue placement differs
		// between the two modes (the ConnHint above).
		doneA := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 1; i <= total; i++ {
				if i == warmup+1 {
					r.tb.A.GPU.ResetCounters()
					tStart = w.Now()
				}
				t0 := w.Now()
				w.StGlobalU64(r.aSend+off, uint64(i))
				epA.DevPut(w, r.aSendR, 0, r.bRecvR, 0, size, transport.FlagLocalComp)
				t1 := w.Now()
				epA.DevWaitComplete(w, transport.CompLocal) // reap local completion
				w.PollGlobalU64Masked(r.aRecv+off, uint64(i)&mask, mask)
				t2 := w.Now()
				if i > warmup {
					putSum += t1.Sub(t0)
					pollSum += t2.Sub(t1)
				}
			}
			tEnd = w.Now()
		})
		doneB := r.tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 1; i <= total; i++ {
				w.PollGlobalU64Masked(r.bRecv+off, uint64(i)&mask, mask)
				w.StGlobalU64(r.bSend+off, uint64(i))
				epB.DevPut(w, r.bSendR, 0, r.aRecvR, 0, size, transport.FlagLocalComp)
				epB.DevWaitComplete(w, transport.CompLocal)
			}
		})
		runTestbed(r.tb)
		mustDone(doneA, fmt.Sprintf("%s ping-pong kernel A", kind))
		mustDone(doneB, fmt.Sprintf("%s ping-pong kernel B", kind))

	case transport.HostAssisted:
		flagsA := core.NewAssistFlags(r.tb.A)
		flagsB := core.NewAssistFlags(r.tb.B)
		doneA := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 1; i <= total; i++ {
				if i == warmup+1 {
					r.tb.A.GPU.ResetCounters()
					tStart = w.Now()
				}
				t0 := w.Now()
				w.StGlobalU64(r.aSend+off, uint64(i))
				core.DevRequestAssist(w, flagsA, uint64(i))
				t1 := w.Now()
				w.PollGlobalU64Masked(r.aRecv+off, uint64(i)&mask, mask)
				t2 := w.Now()
				if i > warmup {
					putSum += t1.Sub(t0)
					pollSum += t2.Sub(t1)
				}
			}
			tEnd = w.Now()
		})
		doneB := r.tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			for i := 1; i <= total; i++ {
				w.PollGlobalU64Masked(r.bRecv+off, uint64(i)&mask, mask)
				w.StGlobalU64(r.bSend+off, uint64(i))
				core.DevRequestAssist(w, flagsB, uint64(i))
			}
		})
		r.tb.E.Spawn("a.cpu.assist", func(p *sim.Proc) {
			for i := 1; i <= total; i++ {
				core.HostAwaitAssistReq(p, r.tb.A.CPU, flagsA, uint64(i))
				epA.HostPut(p, r.aSendR, 0, r.bRecvR, 0, size, transport.FlagLocalComp)
				epA.HostWaitComplete(p, transport.CompLocal)
			}
		})
		r.tb.E.Spawn("b.cpu.assist", func(p *sim.Proc) {
			for i := 1; i <= total; i++ {
				core.HostAwaitAssistReq(p, r.tb.B.CPU, flagsB, uint64(i))
				epB.HostPut(p, r.bSendR, 0, r.aRecvR, 0, size, transport.FlagLocalComp)
				epB.HostWaitComplete(p, transport.CompLocal)
			}
		})
		runTestbed(r.tb)
		mustDone(doneA, fmt.Sprintf("%s assisted kernel A", kind))
		mustDone(doneB, fmt.Sprintf("%s assisted kernel B", kind))

	case transport.HostControlled:
		// All control on the CPUs. EXTOLL synchronizes on completer
		// notifications; IB puts carry an immediate, each consuming one of
		// the preposted arrival slots (the Mellanox patch does not allow
		// host polls on GPU memory, §V-B.1).
		flags := transport.FlagRemoteComp
		if ext {
			flags |= transport.FlagLocalComp
		}
		doneA := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			epA.HostPrepostArrivals(p, total) // pongs
			for i := 1; i <= total; i++ {
				if i == warmup+1 {
					tStart = p.Now()
				}
				t0 := p.Now()
				epA.HostPut(p, r.aSendR, 0, r.bRecvR, 0, size, flags)
				t1 := p.Now()
				if ext {
					epA.HostWaitComplete(p, transport.CompLocal)
				}
				c := epA.HostWaitComplete(p, transport.CompRemote) // pong arrived
				if !ext && c.Value != uint64(i) {
					panic(fmt.Sprintf("bench: pong imm %d at iteration %d", c.Value, i))
				}
				t2 := p.Now()
				if i > warmup {
					putSum += t1.Sub(t0)
					pollSum += t2.Sub(t1)
				}
			}
			tEnd = p.Now()
			doneA.Complete()
		})
		doneB := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("b.cpu", func(p *sim.Proc) {
			epB.HostPrepostArrivals(p, total) // pings
			for i := 1; i <= total; i++ {
				epB.HostWaitComplete(p, transport.CompRemote)
				epB.HostPut(p, r.bSendR, 0, r.aRecvR, 0, size, flags)
				if ext {
					epB.HostWaitComplete(p, transport.CompLocal)
				}
			}
			doneB.Complete()
		})
		runTestbed(r.tb)
		mustDone(doneA, fmt.Sprintf("%s host-controlled A", kind))
		mustDone(doneB, fmt.Sprintf("%s host-controlled B", kind))

	default:
		panic("bench: unknown control mode")
	}

	// Verify delivery on the modes whose final ping is the unmodified
	// payload (the stamping modes overwrite the tail word).
	if ext && (mode == transport.Direct || mode == transport.HostControlled) {
		got := make([]byte, size)
		mustWrite(r.tb.B.GPU.HostRead(r.bRecv, got))
		if !bytes.Equal(got, payload[:size]) {
			panic("bench: ping-pong corrupted payload")
		}
	}

	return LatencyResult{
		Size:     size,
		Iters:    iters,
		HalfRTT:  tEnd.Sub(tStart) / sim.Duration(2*iters),
		PutTime:  putSum / sim.Duration(iters),
		PollTime: pollSum / sim.Duration(iters),
		Counters: r.tb.A.GPU.Counters(),
		Events:   r.tb.E.Executed(),
		Spawned:  r.tb.E.Spawned(),
		Handoffs: r.tb.E.Handoffs(),
		Rel:      relCounters(r.tb),
	}
}

// Stream runs the paper's bandwidth experiment (§V-A.1, §V-B.1):
// `messages` puts of `size` bytes A→B; throughput is measured from the
// first post on A to the arrival of the final payload at B. The put
// window follows each fabric's driver: EXTOLL completes every put (its
// requester notifications are cheap), IB moderates the CQ like
// ib_write_bw (every 4th WQE signaled, window of 4).
func Stream(p cluster.Params, kind transport.Kind, mode ControlMode, size, messages int) BandwidthResult {
	if kind == transport.KindExtoll && mode == transport.PollOnGPU {
		// Without notifications there is no flow-control signal; the
		// paper's bandwidth plot therefore only shows direct, assisted and
		// host-controlled. Accept the mode for completeness by falling
		// back to requester notifications.
		mode = transport.Direct
	}
	if !transport.Supports(kind, mode) {
		panic(fmt.Sprintf("bench: %s does not support %s", kind, mode))
	}
	buf := uint64(size)
	if buf < 8 {
		buf = 8
	}
	r := newRig(kind, p, buf)
	defer r.tb.Shutdown()
	ext := kind == transport.KindExtoll
	mask := seqMask(size)
	off := memspace.Addr(stampOff(size))
	final := uint64(messages) & mask

	window, sigEvery := 1, 1
	if !ext {
		window, sigEvery = 4, 4
	}

	epA, epB := r.tr.Connect(0, connHint(ext, mode, 16))
	r.fillPayload(size)

	var tStart, tEnd sim.Time
	endSeen := sim.NewCompletion(r.tb.E)

	// Receiver-side end detection.
	if mode == transport.HostControlled {
		r.tb.E.Spawn("b.cpu.end", func(p *sim.Proc) {
			epB.HostPrepostArrivals(p, 1)
			c := epB.HostWaitComplete(p, transport.CompRemote)
			if !ext && c.Value != uint64(messages) {
				panic("bench: wrong final immediate")
			}
			tEnd = p.Now()
			endSeen.Complete()
		})
	} else {
		r.tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			w.PollGlobalU64Masked(r.bRecv+off, final, mask)
			tEnd = w.Now()
			endSeen.Complete()
		})
	}

	switch mode {
	case transport.Direct, transport.QueuesOnGPU, transport.QueuesOnHost:
		r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			tStart = w.Now()
			outstanding := 0
			for i := 1; i <= messages; i++ {
				flags := 0
				if i%sigEvery == 0 || i == messages {
					flags = transport.FlagLocalComp
				}
				if i == messages {
					w.StGlobalU64(r.aSend+off, uint64(i))
				}
				epA.DevPut(w, r.aSendR, 0, r.bRecvR, 0, size, flags)
				if flags != 0 {
					outstanding++
				}
				if outstanding >= window {
					epA.DevWaitComplete(w, transport.CompLocal)
					outstanding--
				}
			}
			for outstanding > 0 {
				epA.DevWaitComplete(w, transport.CompLocal)
				outstanding--
			}
		})
	case transport.HostAssisted:
		flagsA := core.NewAssistFlags(r.tb.A)
		r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			tStart = w.Now()
			for i := 1; i <= messages; i++ {
				core.DevRequestAssist(w, flagsA, uint64(i))
				//putget:allow boundedwait -- the a.cpu.assist thread below acks every request it serves: the fault-free rig completes each wait by construction
				core.DevAwaitAssistAck(w, flagsA, uint64(i))
			}
		})
		r.tb.E.Spawn("a.cpu.assist", func(p *sim.Proc) {
			outstanding := 0
			for i := 1; i <= messages; i++ {
				core.HostAwaitAssistReq(p, r.tb.A.CPU, flagsA, uint64(i))
				if i == messages {
					r.tb.A.CPU.WriteU64(p, r.aSend+off, uint64(i))
				}
				flags := 0
				if i%sigEvery == 0 || i == messages {
					flags = transport.FlagLocalComp
				}
				epA.HostPut(p, r.aSendR, 0, r.bRecvR, 0, size, flags)
				if flags != 0 {
					outstanding++
				}
				if outstanding >= window {
					epA.HostWaitComplete(p, transport.CompLocal)
					outstanding--
				}
				core.HostAckAssist(p, r.tb.A.CPU, flagsA, uint64(i))
			}
		})
	case transport.HostControlled:
		r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			tStart = p.Now()
			outstanding := 0
			for i := 1; i <= messages; i++ {
				flags := 0
				if i%sigEvery == 0 || i == messages {
					flags = transport.FlagLocalComp
				}
				if i == messages {
					r.tb.A.CPU.WriteU64(p, r.aSend+off, uint64(i))
					flags |= transport.FlagRemoteComp
				}
				epA.HostPut(p, r.aSendR, 0, r.bRecvR, 0, size, flags)
				if flags&transport.FlagLocalComp != 0 {
					outstanding++
				}
				if outstanding >= window {
					epA.HostWaitComplete(p, transport.CompLocal)
					outstanding--
				}
			}
			for outstanding > 0 {
				epA.HostWaitComplete(p, transport.CompLocal)
				outstanding--
			}
		})
	}

	runTestbed(r.tb)
	mustDone(endSeen, fmt.Sprintf("%s stream end detection", kind))
	elapsed := tEnd.Sub(tStart)

	// Verify the final payload arrived intact (modulo the stamp word,
	// which the source buffer also carries after the last-message stamp).
	if !ext {
		got := make([]byte, size)
		mustWrite(r.tb.B.GPU.HostRead(r.bRecv, got))
		want := make([]byte, size)
		mustWrite(r.tb.A.GPU.HostRead(r.aSend, want))
		if !bytes.Equal(got, want) {
			panic("bench: stream corrupted payload")
		}
	}

	return BandwidthResult{
		Size:        size,
		Messages:    messages,
		Elapsed:     elapsed,
		BytesPerSec: float64(size) * float64(messages) / elapsed.Seconds(),
		Events:      r.tb.E.Executed(),
		Rel:         relCounters(r.tb),
	}
}

// MessageRate runs the paper's message-rate experiment (§V-A.2, §V-B.2):
// `pairs` connections (EXTOLL ports / IB queue pairs), one per agent per
// the method, each sending `perPair` 64-byte messages with a window of
// one completed put.
func MessageRate(p cluster.Params, kind transport.Kind, method RateMethod, pairs, perPair int) RateResult {
	const msgSize = 64
	slot := uint64(256) // per-pair buffer slot
	r := newRig(kind, p, slot*uint64(pairs))
	defer r.tb.Shutdown()
	ext := kind == transport.KindExtoll

	hint := transport.ConnHint{}
	if !ext {
		onGPU := method == RateBlocks || method == RateKernels
		hint = transport.ConnHint{SendEntries: 256, RecvEntries: 16, CompEntries: 256, QueuesOnGPU: onGPU}
	}
	epsA := make([]transport.Endpoint, pairs)
	for b := 0; b < pairs; b++ {
		epsA[b], _ = r.tr.Connect(b, hint)
	}
	r.fillPayload(msgSize)

	starts := make([]sim.Time, pairs)
	ends := make([]sim.Time, pairs)
	slotOff := func(b int) uint64 { return uint64(b) * slot }

	gpuBody := func(w *gpusim.Warp, b int) {
		starts[b] = w.Now()
		for m := 1; m <= perPair; m++ {
			epsA[b].DevPut(w, r.aSendR, slotOff(b), r.bRecvR, slotOff(b), msgSize, transport.FlagLocalComp)
			epsA[b].DevWaitComplete(w, transport.CompLocal)
		}
		ends[b] = w.Now()
	}

	switch method {
	case RateBlocks:
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: pairs}, func(w *gpusim.Warp) {
			gpuBody(w, w.Block)
		})
		runTestbed(r.tb)
		mustDone(done, fmt.Sprintf("%s message-rate blocks kernel", kind))
	case RateKernels:
		dones := make([]*sim.Completion, pairs)
		for b := 0; b < pairs; b++ {
			st := r.tb.A.GPU.NewStream()
			b := b
			dones[b] = r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1, Stream: st}, func(w *gpusim.Warp) {
				gpuBody(w, b)
			})
		}
		runTestbed(r.tb)
		for b, d := range dones {
			mustDone(d, fmt.Sprintf("%s message-rate kernel %d", kind, b))
		}
	case RateAssisted:
		aflags := make([]core.AssistFlags, pairs)
		for b := range aflags {
			aflags[b] = core.NewAssistFlags(r.tb.A)
		}
		done := r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: pairs}, func(w *gpusim.Warp) {
			b := w.Block
			starts[b] = w.Now()
			for m := 1; m <= perPair; m++ {
				core.DevRequestAssist(w, aflags[b], uint64(m))
				//putget:allow boundedwait -- the one assist CPU thread below serves and acks every pair's requests until all are done
				core.DevAwaitAssistAck(w, aflags[b], uint64(m))
			}
			ends[b] = w.Now()
		})
		// One CPU thread serves every pair: while it handles one request,
		// all other aspirants block — the §V-A.2 bottleneck.
		cpuDone := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("a.cpu.assist", func(p *sim.Proc) {
			served := make([]uint64, pairs)
			remaining := pairs * perPair
			for remaining > 0 {
				progress := false
				for b := 0; b < pairs; b++ {
					if served[b] == uint64(perPair) {
						continue
					}
					req := r.tb.A.CPU.ReadU64(p, aflags[b].Req)
					if req > served[b] {
						epsA[b].HostPut(p, r.aSendR, slotOff(b), r.bRecvR, slotOff(b), msgSize, transport.FlagLocalComp)
						epsA[b].HostWaitComplete(p, transport.CompLocal)
						served[b] = req
						core.HostAckAssist(p, r.tb.A.CPU, aflags[b], req)
						remaining--
						progress = true
					}
				}
				if !progress {
					// Nothing pending: wait for the next GPU request flag.
					r.tb.A.CPU.Compute(p, 200*sim.Nanosecond)
				}
			}
			cpuDone.Complete()
		})
		runTestbed(r.tb)
		mustDone(done, fmt.Sprintf("%s assisted rate kernel", kind))
		mustDone(cpuDone, fmt.Sprintf("%s assisted rate CPU", kind))
	case RateHostControlled:
		done := sim.NewCompletion(r.tb.E)
		r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
			starts[0] = p.Now()
			posted := make([]int, pairs)
			inflight := make([]bool, pairs)
			remaining := pairs * perPair
			for remaining > 0 {
				for b := 0; b < pairs; b++ {
					if inflight[b] {
						if _, ok := epsA[b].HostTryComplete(p, transport.CompLocal); ok {
							inflight[b] = false
							remaining--
						}
					} else if posted[b] < perPair {
						posted[b]++
						epsA[b].HostPut(p, r.aSendR, slotOff(b), r.bRecvR, slotOff(b), msgSize, transport.FlagLocalComp)
						inflight[b] = true
					}
				}
			}
			ends[0] = p.Now()
			done.Complete()
		})
		runTestbed(r.tb)
		mustDone(done, fmt.Sprintf("%s host-controlled rate CPU", kind))
		for b := 1; b < pairs; b++ {
			starts[b], ends[b] = starts[0], ends[0]
		}
	}

	var minStart, maxEnd sim.Time
	minStart = starts[0]
	for b := 0; b < pairs; b++ {
		if starts[b] < minStart {
			minStart = starts[b]
		}
		if ends[b] > maxEnd {
			maxEnd = ends[b]
		}
	}
	elapsed := maxEnd.Sub(minStart)
	total := pairs * perPair
	return RateResult{
		Pairs:      pairs,
		Messages:   total,
		Elapsed:    elapsed,
		MsgsPerSec: float64(total) / elapsed.Seconds(),
		Events:     r.tb.E.Executed(),
		Spawned:    r.tb.E.Spawned(),
		Handoffs:   r.tb.E.Handoffs(),
	}
}
