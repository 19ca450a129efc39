package cluster

import (
	"fmt"

	"putget/internal/extoll"
	"putget/internal/faults"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
	"putget/internal/topo"
	"putget/internal/wire"
)

// Fabric selects the NIC family an N-node cluster is built from.
type Fabric int

const (
	FabricExtoll Fabric = iota
	FabricIB
)

func (f Fabric) String() string {
	if f == FabricIB {
		return "ib"
	}
	return "extoll"
}

// Cluster is an N-node testbed: nodes joined by a topo.Net — a direct
// cable between two nodes (topo.Direct, the paper's testbed) or a
// switched fat-tree or torus. On a switched net only the shared fabric
// (the switch graph) is built up front; every node — CPU, GPU, PCIe
// fabric and one NIC — is materialized lazily on its first Node(i)
// touch, so a 1024-node cluster whose job spans 64 ranks pays the
// construction cost of 64 nodes. Destinations are resolved from
// sender-local routing keys (EXTOLL origin ports, IB source QPNs) bound
// at connection-setup time via BindExtoll/BindIB — transports do this
// when they connect two nodes. A Direct cluster builds both nodes up
// front and needs no bindings.
type Cluster struct {
	E      *sim.Engine
	Params Params
	Fab    Fabric
	Spec   topo.Spec

	// Exactly one of these is non-nil, matching Fab.
	ExtNet *topo.Net[extoll.Packet]
	IBNet  *topo.Net[ibsim.Packet]

	n     int
	nodes []*Node // nodes[i] == nil until first Node(i) touch
	built int
	index map[*Node]int

	extNotifBase memspace.Addr       // EXTOLL notification-ring base, fixed at cluster build
	wireFaults   [2]*faults.Injector // a Direct cluster's cable injectors under FaultInject
}

// NewCluster builds an n-node EXTOLL cluster on the given topology.
// Panics if p fails Validate or sets knobs a switched fabric does not
// support (see NewClusterOn).
func NewCluster(spec topo.Spec, n int, p Params) *Cluster {
	return NewClusterOn(FabricExtoll, spec, n, p)
}

// NewClusterOn builds an n-node cluster of the given NIC family. The
// switch graph is constructed eagerly (it is shared state every node
// attaches to); per-node state is deferred to Node(i), except on a
// Direct net, whose two nodes are built here.
//
// FaultInject and WireDepthCap need a Direct net. EXTOLL's link-level
// go-back-N reliability is a single-peer protocol (link ACK/NAK packets
// carry no node identity), so lossy multi-node EXTOLL would be wrong
// rather than degraded; use topo.Spec.DownLinks/DownNodes for
// whole-element failures, which the routing layer models
// fabric-manager-style. WireDepthCap likewise bounds the one cable of a
// NIC's direct link.
func NewClusterOn(fab Fabric, spec topo.Spec, n int, p Params) *Cluster {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	direct := spec.Kind == topo.Direct
	if p.FaultInject && !direct {
		panic("cluster: FaultInject needs a Direct net (EXTOLL link-level reliability is single-peer); use topo.Spec.DownLinks/DownNodes for switched faults")
	}
	if p.WireDepthCap > 0 && !direct {
		panic("cluster: WireDepthCap needs a Direct net; switched cables are uncapped")
	}
	if n < 2 {
		panic("cluster: need at least 2 nodes")
	}
	e := sim.NewEngine()
	c := &Cluster{E: e, Params: p, Fab: fab, Spec: spec,
		n: n, nodes: make([]*Node, n), index: make(map[*Node]int, n)}
	switch fab {
	case FabricExtoll:
		c.extNotifBase = NotifArea
		if p.ExtNotifInDevMem {
			// Carve the rings out of the top of device memory (the heap
			// allocator grows from the bottom).
			c.extNotifBase = DevMemBase + memspace.Addr(p.GPUDevMemSize-(32<<20))
		}
		c.ExtNet = topo.NewNet[extoll.Packet](e, spec, n,
			topo.LinkConfig{BytesPerSecond: p.ExtWireBW, Latency: p.ExtWireLat},
			"rma.net",
			func(pkt extoll.Packet) int { return pkt.OriginPort })
		c.ExtNet.SetCorrupter(func(pkt extoll.Packet) extoll.Packet { pkt.Poisoned = true; return pkt })
	case FabricIB:
		c.IBNet = topo.NewNet[ibsim.Packet](e, spec, n,
			topo.LinkConfig{BytesPerSecond: p.IBWireBW, Latency: p.IBWireLat},
			"hca.net",
			func(pkt ibsim.Packet) int { return int(pkt.SrcQPN) })
		c.IBNet.SetCorrupter(func(pkt ibsim.Packet) ibsim.Packet { pkt.Poisoned = true; return pkt })
	default:
		panic(fmt.Sprintf("cluster: unknown Fabric %d", int(fab)))
	}
	if direct {
		c.Node(0)
		c.Node(1)
	}
	return c
}

// N returns the cluster's node count (materialized or not).
func (c *Cluster) N() int { return c.n }

// Built reports how many nodes have been materialized so far — the
// number a lazy-build job actually paid for.
func (c *Cluster) Built() int { return c.built }

// Node returns node i, materializing it (CPU, GPU, PCIe fabric, NIC,
// fabric attachment) on first touch. Repeated calls return the same
// node. Panics on out-of-range indices. The nodes of a Direct cluster
// are "a" and "b"; switched-cluster nodes are "n<i>".
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("cluster: node %d out of range (n=%d)", i, c.n))
	}
	if nd := c.nodes[i]; nd != nil {
		return nd
	}
	name := fmt.Sprintf("n%d", i)
	if c.Spec.Kind == topo.Direct {
		name = string(rune('a' + i))
	}
	nd := newNode(c.E, name, c.Params)
	p := c.Params
	var cable *wire.Cable // the node's injection cable
	switch c.Fab {
	case FabricExtoll:
		var rel *extoll.RelConfig
		if p.FaultInject {
			rel = extoll.DefaultRelConfig()
		}
		nd.Extoll = extoll.New(c.E, nd.Fabric, extoll.Config{
			Name:          nd.Name + ".rma",
			Rel:           rel,
			ClockHz:       p.ExtClock,
			DatapathBytes: p.ExtDatapath,
			ReqCycles:     p.ExtReqCycles,
			CompCycles:    p.ExtCompCycles,
			RespCycles:    p.ExtRespCycles,
			NumPorts:      p.ExtPorts,
			BARBase:       ExtollBAR,
			NotifBase:     c.extNotifBase,
			NotifEntries:  p.ExtNotifEntries,
			DMAContexts:   p.ExtDMACtx,
			PCIe: pcie.EndpointConfig{
				EgressRate: p.ExtEgress, OneWay: p.ExtOneWay, ReadLatency: p.ExtReadLat,
			},
		})
		port := c.ExtNet.Port(i)
		nd.Extoll.AttachWire(port, port)
		cable = c.ExtNet.Inject(i)
	case FabricIB:
		var rel *ibsim.RelConfig
		if p.FaultInject {
			rel = ibsim.DefaultRelConfig()
		}
		nd.IB = ibsim.New(c.E, nd.Fabric, ibsim.Config{
			Name:          nd.Name + ".hca",
			Rel:           rel,
			BARBase:       IBBAR,
			WQEFetchBatch: p.IBFetchBatch,
			ProcessTime:   p.IBProc,
			RxProcessTime: p.IBRxProc,
			DMAContexts:   p.IBDMACtx,
			PCIe: pcie.EndpointConfig{
				EgressRate: p.IBEgress, OneWay: p.IBOneWay, ReadLatency: p.IBReadLat,
			},
		})
		port := c.IBNet.Port(i)
		nd.IB.AttachWire(port, port)
		cable = c.IBNet.Inject(i)
	}
	if c.Spec.Kind == topo.Direct {
		c.attachDirect(i, nd, cable)
	}
	c.nodes[i] = nd
	c.index[nd] = i
	c.built++
	return nd
}

// attachDirect sets up node i's cable to the peer on a Direct cluster:
// it is named after the NIC ("a.rma.wire"), takes the depth cap and,
// under FaultInject, the cable's injector (salt i+1, so the two
// directions draw independent verdicts from one master seed); the node
// also gets its PCIe replay injector (salt i+3).
func (c *Cluster) attachDirect(i int, nd *Node, cable *wire.Cable) {
	p := c.Params
	if c.Fab == FabricIB {
		cable.SetName(nd.Name + ".hca.wire")
	} else {
		cable.SetName(nd.Name + ".rma.wire")
	}
	cable.SetDepthCap(p.WireDepthCap)
	if !p.FaultInject {
		return
	}
	c.wireFaults[i] = faults.NewInjector(wireFaultPlan(p, uint64(i+1)))
	cable.SetFaults(c.wireFaults[i])
	if p.FaultPCIeReplayRate > 0 {
		penalty := p.FaultPCIeReplayPenalty
		if penalty == 0 {
			penalty = 500 * sim.Nanosecond
		}
		nd.Fabric.SetFaults(faults.NewInjector(faults.Plan{
			Seed:  faults.DeriveSeed(p.FaultSeed, uint64(3+i)),
			Rules: []faults.Rule{{DropRate: p.FaultPCIeReplayRate}},
		}), penalty)
	}
}

// IndexOf returns a node's rank in the cluster; panics on foreign nodes.
func (c *Cluster) IndexOf(n *Node) int {
	i, ok := c.index[n]
	if !ok {
		panic("cluster: node is not part of this cluster")
	}
	return i
}

// BindExtoll routes packets originating from src's EXTOLL port to dst.
// Every outbound EXTOLL packet stamps its origin port, which is local to
// the sender, so (node, origin port) identifies the connection.
func (c *Cluster) BindExtoll(src *Node, port int, dst *Node) {
	c.ExtNet.Bind(c.IndexOf(src), port, c.IndexOf(dst))
}

// BindIB routes packets sent from src's QPN to dst. IB packets stamp
// the sender-local source QPN on every packet, requests and responses
// alike, so (node, SrcQPN) identifies the connection.
func (c *Cluster) BindIB(src *Node, qpn uint32, dst *Node) {
	c.IBNet.Bind(c.IndexOf(src), int(qpn), c.IndexOf(dst))
}

// Shutdown terminates the cluster's parked processes so their
// goroutines exit; call it when done.
func (c *Cluster) Shutdown() { c.E.Shutdown() }
