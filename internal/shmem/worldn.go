package shmem

// World construction, the connection graph and the device operations:
// one PE per node of a cluster joined by any topology. The connection
// graph is explicit and sparse — World.Connect wires exactly the rank
// pairs an algorithm needs, and the collectives in collectives.go
// connect their own peer sets at plan time. Synchronization is the root
// team's dissemination barrier (team.go).
//
// Construction is lazy at every layer: NewWorldN builds only the switch
// graph and the rank tables. A node and its PE materialize on the first
// World.PE touch (usually via Connect or Team.Run), and each team's
// barrier flags and connection graph materialize on first use. A job
// that runs a 64-rank team of a 1024-node world builds 64 nodes.

import (
	"fmt"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/topo"
	"putget/internal/transport"
)

// NewWorldN builds an n-PE world over an n-node cluster of the chosen
// fabric, joined by the given topology (topo.Direct for the two-node
// pair). Each node contributes one PE with a symmetric heap of heapSize
// bytes. Nothing per-rank is built here; PEs and connections
// materialize on first touch, and collective plans connect their own
// peers.
func NewWorldN(k transport.Kind, spec topo.Spec, n int, p cluster.Params, heapSize uint64) *World {
	cl := cluster.NewClusterOn(fabricOf(k), spec, n, p)
	w := &World{
		CL:        cl,
		Transport: transport.NewCluster(k, cl),
		n:         n,
		pes:       make([]*PE, n),
		heapSize:  heapSize,
		regions:   make([]transport.Region, n),
		conns:     map[[2]int]bool{},
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	w.root = w.newTeam("world", ranks)
	return w
}

// fabricOf names the cluster NIC family a transport kind drives.
func fabricOf(k transport.Kind) cluster.Fabric {
	if k == transport.KindIB {
		return cluster.FabricIB
	}
	return cluster.FabricExtoll
}

// connHint picks the per-connection defaults: IB rings live in GPU
// device memory (the paper's bufOnGPU placement — claim 3's minimal-PCIe
// completion detection).
func (w *World) connHint() transport.ConnHint {
	return transport.ConnHint{QueuesOnGPU: w.Transport.Kind() == transport.KindIB}
}

// Connect establishes the connection between ranks a and b if it does not
// exist yet (idempotent), materializing both PEs first. Setup plane: call
// before Run.
func (w *World) Connect(a, b int) {
	if a == b {
		panic("shmem: Connect needs two distinct ranks")
	}
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	if w.conns[key] {
		return
	}
	pa, pb := w.PE(a), w.PE(b)
	ea, eb := w.Transport.ConnectPair(pa.Node, pb.Node, w.connHint())
	pa.dataTo[b] = ea
	pb.dataTo[a] = eb
	w.conns[key] = true
}

// Connections reports how many rank pairs have been wired so far — the
// connection-graph cost a lazy-build job actually paid.
func (w *World) Connections() int { return len(w.conns) }

// ep returns this PE's endpoint to a peer rank, panicking with guidance
// when the ranks were never connected.
func (pe *PE) ep(peer int) transport.Endpoint {
	ep := pe.dataTo[peer]
	if ep == nil {
		panic(fmt.Sprintf("shmem: ranks %d and %d are not connected; call World.Connect(%d, %d) before Run", pe.Rank, peer, pe.Rank, peer))
	}
	return ep
}

// ---- device-side operations (called from GPU kernels) ----

// PutTo copies n bytes from the local symmetric offset src to peer rank's
// symmetric offset dst. Completion is asynchronous; call QuietAll (or
// reap the peer's stream selectively) to wait.
func (pe *PE) PutTo(w *gpusim.Warp, peer int, dst, src uint64, n int) {
	pe.ep(peer).DevPut(w, pe.local, src, pe.world.regions[peer], dst, n, transport.FlagLocalComp)
	pe.outTo[peer]++
}

// PutImmTo writes one 64-bit value to peer rank's symmetric offset with
// an immediate put (no source DMA).
func (pe *PE) PutImmTo(w *gpusim.Warp, peer int, dst uint64, value uint64) {
	pe.ep(peer).DevPutImm(w, value, pe.world.regions[peer], dst, 8, transport.FlagLocalComp)
	pe.outTo[peer]++
}

// GetFrom copies n bytes from peer rank's symmetric offset src into the
// local offset dst and blocks until the data has arrived.
func (pe *PE) GetFrom(w *gpusim.Warp, peer int, dst, src uint64, n int) {
	pe.ep(peer).DevGet(w, pe.local, dst, pe.world.regions[peer], src, n)
}

// QuietAll blocks until every outstanding PutTo/PutImmTo on every peer
// connection has completed locally (the EXTOLL requester notification /
// IB send CQE) — shmem_quiet on a fabric with in-order delivery.
func (pe *PE) QuietAll(w *gpusim.Warp) {
	for peer, out := range pe.outTo {
		for out > 0 {
			//putget:allow boundedwait -- shmem_quiet is unbounded by the OpenSHMEM spec: it waits on exactly the puts this PE issued, each of which the reliable fabric completes
			pe.dataTo[peer].DevWaitComplete(w, transport.CompLocal)
			out--
		}
		pe.outTo[peer] = 0
	}
}

// BarrierAll synchronizes all N PEs — the root team's dissemination
// barrier: in round k, team rank r writes its epoch to rank (r+2^k)
// mod N's round-k flag with a fire-and-forget immediate put (no
// completion anywhere, so Quiet semantics are untouched) and polls its
// own round-k flag in device memory until the epoch from rank (r-2^k)
// mod N lands. ceil(log2 N) rounds transitively cover all ranks.
//
// Flag slots alternate between two parity sets by epoch. Dissemination
// coverage means a rank exits epoch s only after every rank has entered
// it, so no writer can be two barriers ahead of a poller; a one-ahead
// writer (epoch s+1) targets the other parity's slots. Each slot is
// therefore written exactly once per observed epoch and the equality
// poll cannot miss a transition.
//
// World.Run materializes the root team; a kernel launched through a
// sub-team's Run should call its Team.Barrier instead.
func (pe *PE) BarrierAll(w *gpusim.Warp) {
	pe.world.root.Barrier(pe, w)
}
