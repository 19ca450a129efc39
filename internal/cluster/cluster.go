package cluster

import (
	"fmt"

	"putget/internal/extoll"
	"putget/internal/faults"
	"putget/internal/gpusim"
	"putget/internal/hostsim"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
	"putget/internal/topo"
)

// Node is one machine: CPU + host RAM + GPU + (at most one) NIC on a
// private PCIe fabric.
type Node struct {
	Name    string
	E       *sim.Engine
	Space   *memspace.Space
	Fabric  *pcie.Fabric
	CPU     *hostsim.CPU
	GPU     *gpusim.GPU
	HostRAM memspace.Region

	Extoll *extoll.NIC // nil on IB testbeds
	IB     *ibsim.HCA  // nil on EXTOLL testbeds

	hostBrk memspace.Addr // bump allocator for host RAM
	devBrk  memspace.Addr // bump allocator for device memory
}

// p2pReadRate builds the GPU's inbound read-service curve.
func p2pReadRate(p Params) func(total int) float64 {
	return func(total int) float64 {
		if !p.P2PCollapseOff && total > p.P2PCollapseBytes {
			return p.P2PReadLarge
		}
		return p.P2PReadSmall
	}
}

// newNode builds one node without a NIC.
func newNode(e *sim.Engine, name string, p Params) *Node {
	space := memspace.NewSpace()
	host := space.MustMap(HostRAMBase, memspace.NewRAM(name+".host", p.HostRAMSize))
	f := pcie.NewFabric(e, space)
	hostEP := f.AddEndpoint(name+".hostmem", pcie.EndpointConfig{
		EgressRate: p.HostEgress, OneWay: p.HostOneWay, ReadLatency: p.HostReadLat,
	})
	f.ClaimRAM(hostEP, host)
	cpu := hostsim.New(e, f, hostsim.Config{
		Name:          name + ".cpu",
		MemLatency:    p.HostMemLat,
		MMIOWriteCost: p.CPUMMIO,
		WRGenCost:     p.CPUWRGen,
		HostRAM:       host,
		PCIe: pcie.EndpointConfig{
			EgressRate: p.CPUEgress, OneWay: p.CPUOneWay, ReadLatency: 100 * sim.Nanosecond,
		},
	})
	hostEP.OnInboundWrite = cpu.NotifyInboundWrite
	gpu := gpusim.New(e, f, gpusim.Config{
		Name:           name + ".gpu",
		SMs:            p.GPUSMs,
		IssueCost:      p.GPUIssue,
		IssueShare:     p.GPUIssueShare,
		L2HitLatency:   p.GPUL2Hit,
		DevMemLatency:  p.GPUDevMemLat,
		PCIeOpOverhead: p.GPUPCIeOp,
		PCIeSlots:      p.GPUPCIeSlots,
		PollLoopStall:  p.GPUPollStall,
		LaunchOverhead: p.GPULaunch,
		L2Bytes:        p.GPUL2Bytes,
		L2Assoc:        p.GPUL2Assoc,
		L2Sector:       p.GPUL2Sector,
		DevMemBase:     DevMemBase,
		DevMemSize:     p.GPUDevMemSize,
		PCIe: pcie.EndpointConfig{
			EgressRate:  p.GPUEgress,
			OneWay:      p.GPUOneWay,
			ReadLatency: p.GPUReadLat,
			ReadRate:    p2pReadRate(p),
		},
	})
	return &Node{
		Name: name, E: e, Space: space, Fabric: f,
		CPU: cpu, GPU: gpu, HostRAM: host,
		// Keep low host RAM for queues/flags; the notification area and a
		// generous slice above it are reserved.
		hostBrk: NotifArea + 0x0100_0000,
		devBrk:  DevMemBase,
	}
}

// AllocHost carves n bytes (64-byte aligned) out of host RAM.
func (n *Node) AllocHost(size uint64) memspace.Addr {
	a := (n.hostBrk + 63) &^ 63
	n.hostBrk = a + memspace.Addr(size)
	if n.hostBrk > n.HostRAM.End() {
		panic(fmt.Sprintf("cluster: %s: host RAM exhausted", n.Name))
	}
	return a
}

// AllocDev carves n bytes (256-byte aligned) out of GPU device memory.
func (n *Node) AllocDev(size uint64) memspace.Addr {
	a := (n.devBrk + 255) &^ 255
	n.devBrk = a + memspace.Addr(size)
	if uint64(n.devBrk) > uint64(DevMemBase)+n.GPU.DevMem().Size {
		panic(fmt.Sprintf("cluster: %s: device memory exhausted", n.Name))
	}
	return a
}

// Testbed is the paper's two-node testbed: a Direct Cluster (one cable
// per direction) whose nodes 0 and 1 are A and B.
type Testbed struct {
	*Cluster
	A, B *Node

	// FaultsAB / FaultsBA guard the two cable directions when
	// Params.FaultInject is set; nil otherwise.
	FaultsAB *faults.Injector
	FaultsBA *faults.Injector
}

// wireFaultPlan scripts one wire direction's injector. The salt separates
// the two directions' PRNG streams so they draw independent verdicts from
// the same master seed.
func wireFaultPlan(p Params, salt uint64) faults.Plan {
	plan := faults.Plan{Seed: faults.DeriveSeed(p.FaultSeed, salt)}
	if p.FaultDropRate > 0 || p.FaultCorruptRate > 0 || p.FaultDelayMax > 0 {
		plan.Rules = []faults.Rule{{
			DropRate:    p.FaultDropRate,
			CorruptRate: p.FaultCorruptRate,
			DelayMax:    p.FaultDelayMax,
		}}
	}
	if p.FaultBlackoutEnd > p.FaultBlackoutStart {
		plan.Blackouts = []faults.Window{{Start: p.FaultBlackoutStart, End: p.FaultBlackoutEnd}}
	}
	return plan
}

// pair wraps a Direct cluster as a Testbed.
func pair(c *Cluster) *Testbed {
	return &Testbed{Cluster: c, A: c.Node(0), B: c.Node(1), FaultsAB: c.wireFaults[0], FaultsBA: c.wireFaults[1]}
}

// NewExtollPair builds the EXTOLL testbed: two nodes with Galibier NICs.
// Panics if p fails Validate.
func NewExtollPair(p Params) *Testbed {
	return pair(NewClusterOn(FabricExtoll, topo.Spec{Kind: topo.Direct}, 2, p))
}

// NewIBPair builds the InfiniBand testbed: two nodes with FDR HCAs.
// Panics if p fails Validate.
func NewIBPair(p Params) *Testbed {
	return pair(NewClusterOn(FabricIB, topo.Spec{Kind: topo.Direct}, 2, p))
}
