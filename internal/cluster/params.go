// Package cluster composes the substrates into the paper's testbeds: two
// nodes, each with a host CPU, host RAM, a Kepler-class GPU and either an
// EXTOLL Galibier NIC or an InfiniBand FDR HCA, joined by a cable.
package cluster

import (
	"putget/internal/memspace"
	"putget/internal/sim"
)

// Address map per node. Each node has its own private physical address
// space (the two fabrics only meet through the NICs).
const (
	HostRAMBase memspace.Addr = 0x0000_0000
	DevMemBase  memspace.Addr = 0x10_0000_0000
	ExtollBAR   memspace.Addr = 0x20_0000_0000
	IBBAR       memspace.Addr = 0x21_0000_0000

	// NotifArea is carved out of host RAM for EXTOLL's kernel-allocated
	// notification rings.
	NotifArea memspace.Addr = 0x0100_0000
)

// Params collects every tunable of the testbed. Defaults (see Default)
// are calibrated so the reproduced figures match the paper's shapes; all
// experiments read them from here, so sensitivity studies are one field
// away.
type Params struct {
	// ---- GPU microarchitecture ----
	GPUSMs int
	// GPUIssue is the effective per-instruction time of a dependent
	// single-thread instruction stream (the paper's descriptor-generation
	// code path is exactly that).
	GPUIssue      sim.Duration
	GPUL2Hit      sim.Duration
	GPUDevMemLat  sim.Duration
	GPUPCIeOp     sim.Duration
	GPUPCIeSlots  int
	GPUPollStall  sim.Duration
	GPUIssueShare int
	GPULaunch     sim.Duration
	GPUL2Bytes    int
	GPUL2Assoc    int
	GPUL2Sector   int
	GPUDevMemSize uint64
	GPUEgress     float64
	GPUOneWay     sim.Duration
	GPUReadLat    sim.Duration
	// P2P read service: the documented PCIe peer-to-peer anomaly. Streams
	// up to P2PCollapseBytes read at P2PReadSmall; larger streams collapse
	// to P2PReadLarge ([14],[15] in the paper).
	P2PReadSmall     float64
	P2PReadLarge     float64
	P2PCollapseBytes int
	// P2PCollapseOff disables the anomaly (ablation).
	P2PCollapseOff bool

	// ---- host ----
	HostRAMSize uint64
	HostMemLat  sim.Duration
	CPUMMIO     sim.Duration
	CPUWRGen    sim.Duration
	HostEgress  float64
	HostOneWay  sim.Duration
	HostReadLat sim.Duration
	CPUEgress   float64
	CPUOneWay   sim.Duration

	// ---- EXTOLL ----
	ExtClock        float64
	ExtDatapath     int
	ExtReqCycles    int
	ExtCompCycles   int
	ExtRespCycles   int
	ExtPorts        int
	ExtNotifEntries int
	// ExtNotifInDevMem places the notification rings in GPU device memory
	// instead of kernel-allocated host memory — a what-if ablation; real
	// EXTOLL pre-allocates them in the driver (§VI).
	ExtNotifInDevMem bool
	ExtDMACtx        int
	ExtEgress        float64
	ExtOneWay        sim.Duration
	ExtReadLat       sim.Duration
	ExtWireBW        float64
	ExtWireLat       sim.Duration

	// ---- InfiniBand ----
	IBFetchBatch int
	IBProc       sim.Duration
	IBRxProc     sim.Duration
	IBDMACtx     int
	IBEgress     float64
	IBOneWay     sim.Duration
	IBReadLat    sim.Duration
	IBWireBW     float64
	IBWireLat    sim.Duration

	// ---- fault injection + reliability ----
	// FaultInject turns the machinery on: seeded injectors wrap both wire
	// directions (and optionally the PCIe bulk path), and both fabrics run
	// their reliability protocols (link retransmission for EXTOLL, the RC
	// ACK/NAK protocol for InfiniBand). Off by default: the zero-loss
	// testbed stays bit-identical to the seed.
	FaultInject bool
	// FaultSeed derives the per-direction injector seeds.
	FaultSeed uint64
	// FaultDropRate / FaultCorruptRate are per-packet probabilities on
	// each wire direction; FaultDelayMax adds uniform extra delivery
	// delay in [0, FaultDelayMax].
	FaultDropRate    float64
	FaultCorruptRate float64
	FaultDelayMax    sim.Duration
	// FaultBlackout, when non-zero in width, drops every packet in
	// [Start, End) of virtual time on both directions.
	FaultBlackoutStart sim.Time
	FaultBlackoutEnd   sim.Time
	// FaultPCIeReplayRate injects link-level replays (extra latency) on
	// the node-local PCIe bulk path; FaultPCIeReplayPenalty is the cost
	// per replay.
	FaultPCIeReplayRate    float64
	FaultPCIeReplayPenalty sim.Duration
	// WireDepthCap bounds each wire direction's egress queue (tail-drop
	// beyond it); 0 keeps the unbounded seed behaviour.
	WireDepthCap int

	// ---- harness ----
	// Parallel is the experiment-harness worker count: sweeps shard their
	// independent cells (one isolated engine + testbed each) across this
	// many workers. 0 defaults to GOMAXPROCS; 1 runs sequentially. It
	// never affects results — merged output is bit-identical for any
	// value — only wall-clock time.
	Parallel int
}

// Default returns the calibrated FPGA-era testbed: EXTOLL Galibier
// (157 MHz / 64-bit datapath), IB 4X FDR, PCIe gen3-x8-class host links,
// and a Kepler-class GPU.
func Default() Params {
	return Params{
		GPUSMs:        13,
		GPUIssue:      18 * sim.Nanosecond,
		GPUL2Hit:      80 * sim.Nanosecond,
		GPUDevMemLat:  250 * sim.Nanosecond,
		GPUPCIeOp:     120 * sim.Nanosecond,
		GPUPCIeSlots:  4,
		GPUPollStall:  200 * sim.Nanosecond,
		GPUIssueShare: 8,
		GPULaunch:     4 * sim.Microsecond,
		GPUL2Bytes:    1536 << 10,
		GPUL2Assoc:    16,
		GPUL2Sector:   32,
		GPUDevMemSize: 512 << 20,
		GPUEgress:     8e9,
		GPUOneWay:     350 * sim.Nanosecond,
		GPUReadLat:    600 * sim.Nanosecond,

		P2PReadSmall:     1.05e9,
		P2PReadLarge:     0.35e9,
		P2PCollapseBytes: 1 << 20,

		HostRAMSize: 256 << 20,
		HostMemLat:  90 * sim.Nanosecond,
		CPUMMIO:     100 * sim.Nanosecond,
		CPUWRGen:    50 * sim.Nanosecond,
		HostEgress:  8e9,
		HostOneWay:  100 * sim.Nanosecond,
		HostReadLat: 150 * sim.Nanosecond,
		CPUEgress:   16e9,
		CPUOneWay:   100 * sim.Nanosecond,

		ExtClock:        157e6,
		ExtDatapath:     8,
		ExtReqCycles:    70,
		ExtCompCycles:   25,
		ExtRespCycles:   25,
		ExtPorts:        34,
		ExtNotifEntries: 1024,
		ExtDMACtx:       8,
		ExtEgress:       4e9,
		ExtOneWay:       150 * sim.Nanosecond,
		ExtReadLat:      100 * sim.Nanosecond,
		ExtWireBW:       0.95e9,
		ExtWireLat:      450 * sim.Nanosecond,

		IBFetchBatch: 8,
		IBProc:       100 * sim.Nanosecond,
		IBRxProc:     100 * sim.Nanosecond,
		IBDMACtx:     16,
		IBEgress:     6e9,
		IBOneWay:     150 * sim.Nanosecond,
		IBReadLat:    100 * sim.Nanosecond,
		IBWireBW:     6.8e9,
		IBWireLat:    450 * sim.Nanosecond,
	}
}

// ASIC returns the projected EXTOLL ASIC profile the paper mentions
// (700 MHz core, 128-bit datapath) for forward-looking studies.
func ASIC() Params {
	p := Default()
	p.ExtClock = 700e6
	p.ExtDatapath = 16
	p.ExtWireBW = 7.0e9
	return p
}

// Modern returns an NVSHMEM-era what-if profile: a GPU with far better
// single-thread issue and many more outstanding PCIe operations, a healed
// peer-to-peer read path (PCIe gen4-class), and an HDR-class wire. It asks
// whether the paper's GPU-control penalty is fundamental or an artifact of
// 2014 hardware.
func Modern() Params {
	p := Default()
	p.GPUIssue = 5 * sim.Nanosecond
	p.GPUPCIeSlots = 64
	p.GPUPollStall = 60 * sim.Nanosecond
	p.GPUPCIeOp = 60 * sim.Nanosecond
	p.GPUOneWay = 250 * sim.Nanosecond
	p.P2PReadSmall = 12e9
	p.P2PReadLarge = 12e9
	p.P2PCollapseOff = true
	p.HostEgress = 16e9
	p.GPUEgress = 16e9
	p.IBEgress = 16e9
	p.IBWireBW = 25e9
	p.ExtClock = 700e6
	p.ExtDatapath = 16
	p.ExtWireBW = 12e9
	p.ExtEgress = 16e9
	return p
}
