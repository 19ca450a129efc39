// Package bench implements the paper's microbenchmarks — ping-pong
// latency, streaming bandwidth, sustained message rate, and the
// performance-counter analyses — for both fabrics and all control modes,
// plus the experiment drivers that regenerate every figure and table of
// the evaluation section.
package bench

import (
	"fmt"

	"putget/internal/gpusim"
	"putget/internal/sim"
	"putget/internal/transport"
)

// ControlMode selects who drives the put/get control path; it is the
// transport layer's fabric-agnostic mode enum (its String values are the
// paper's series names). The former per-fabric ExtollMode/IBMode pairs
// are retained below as named aliases.
type ControlMode = transport.ControlMode

const (
	// ExtDirect posts WRs from the GPU and polls notifications in system
	// memory (dev2dev-direct). EXTOLL only.
	ExtDirect = transport.Direct
	// ExtPollOnGPU posts WRs from the GPU and polls the last received
	// element in device memory (dev2dev-pollOnGPU). EXTOLL only.
	ExtPollOnGPU = transport.PollOnGPU
	// ExtAssisted has the GPU trigger the CPU through a host-memory flag;
	// the CPU performs the transfer (dev2dev-assisted).
	ExtAssisted = transport.HostAssisted
	// ExtHostControlled keeps all control flow on the CPU
	// (dev2dev-hostControlled); data still moves GPU-to-GPU.
	ExtHostControlled = transport.HostControlled

	// IBBufOnGPU: GPU-controlled, queues in GPU device memory. IB only.
	IBBufOnGPU = transport.QueuesOnGPU
	// IBBufOnHost: GPU-controlled, queues in host memory. IB only.
	IBBufOnHost = transport.QueuesOnHost
	// IBAssisted: GPU triggers the CPU via a flag.
	IBAssisted = transport.HostAssisted
	// IBHostControlled: CPU-controlled with write-with-immediate.
	IBHostControlled = transport.HostControlled
)

// RateMethod selects how the message-rate agents are organized (§V-A.2).
type RateMethod int

const (
	// RateBlocks: one kernel, one CUDA block per connection pair.
	RateBlocks RateMethod = iota
	// RateKernels: one single-block kernel per pair, on its own stream.
	RateKernels
	// RateAssisted: GPU blocks trigger one shared CPU service thread.
	RateAssisted
	// RateHostControlled: one CPU thread drives all pairs.
	RateHostControlled
)

// String implements fmt.Stringer with the paper's series names.
func (m RateMethod) String() string {
	switch m {
	case RateBlocks:
		return "dev2dev-blocks"
	case RateKernels:
		return "dev2dev-kernels"
	case RateAssisted:
		return "dev2dev-assisted"
	case RateHostControlled:
		return "dev2dev-hostControlled"
	}
	return fmt.Sprintf("RateMethod(%d)", int(m))
}

// LatencyResult is one ping-pong measurement point.
type LatencyResult struct {
	Size     int
	Iters    int
	HalfRTT  sim.Duration // mean one-way latency
	PutTime  sim.Duration // mean per-iteration WR-generation time (origin)
	PollTime sim.Duration // mean per-iteration completion-wait time (origin)
	Counters gpusim.Counters
	// Events is the simulator's executed-event count for the whole cell
	// (warmup included) — the denominator of the engine's events/sec rate.
	Events uint64
	// Spawned and Handoffs are the cell's process spawns and switches
	// into a process coroutine (sim.Engine.Spawned/Handoffs).
	Spawned, Handoffs uint64
	// Rel holds reliability-protocol activity; nil unless the testbed ran
	// with fault injection enabled.
	Rel *RelCounters
}

// Ratio returns PollTime/PutTime — the decomposition of Fig. 3.
func (r LatencyResult) Ratio() float64 {
	if r.PutTime <= 0 {
		return 0
	}
	return float64(r.PollTime) / float64(r.PutTime)
}

// BandwidthResult is one streaming measurement point.
type BandwidthResult struct {
	Size     int
	Messages int
	Elapsed  sim.Duration
	// BytesPerSec is payload throughput observed at the receiver.
	BytesPerSec float64
	// Events is the simulator's executed-event count for the whole cell.
	Events uint64
	// Rel holds reliability-protocol activity; nil unless the testbed ran
	// with fault injection enabled.
	Rel *RelCounters
}

// RateResult is one message-rate measurement point.
type RateResult struct {
	Pairs      int
	Messages   int
	Elapsed    sim.Duration
	MsgsPerSec float64
	// Events is the simulator's executed-event count for the whole cell.
	Events uint64
	// Spawned and Handoffs are the cell's process spawns and switches
	// into a process coroutine (sim.Engine.Spawned/Handoffs).
	Spawned, Handoffs uint64
}
