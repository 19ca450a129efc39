// Package shmem is a small OpenSHMEM-flavoured GPU communication library
// built on the put/get APIs — a working sketch of the "future GPU
// communication libraries" the paper's conclusion calls for, designed
// around its §VI claims:
//
//   - claim 1 (small footprint): per-PE state is a few words of device
//     memory — a barrier flag and a couple of counters;
//   - claim 2 (thread-collaborative interface): operations are callable
//     from device code; descriptor writes can use the warp-collective path;
//   - claim 3 (minimal PCIe control traffic): all completion detection
//     polls device memory (pollOnGPU) or uses immediate puts; the
//     fabric's completion streams are touched only by QuietAll.
//
// A world is one PE per node of a cluster joined by any topology: the
// paper's two-GPU pair is the 2-rank world on a topo.Direct cable
// (NewWorld), and the same code runs one PE per node of a fat-tree or
// 3D-torus topo.Net (NewWorldN). Device operations always name a peer
// rank. The library is written against the transport.Endpoint
// abstraction, so the same code runs SHMEM over EXTOLL RMA or over
// InfiniBand Verbs.
//
// Every data object lives in a symmetric heap at identical offsets on all
// PEs, so remote addresses are derived, never exchanged.
//
// The world is a thin wrapper over a root Team (team.go): every rank
// subset — split halves, strided grids, a shrunk team routing around a
// dead node — is a Team, and all collectives (collectives.go)
// are planned against a team. State is built lazily end to end: cluster
// nodes materialize on first touch, PEs on first use, and each team's
// connection graph and barrier flags on first plan, so a 1024-node
// world whose job spans 64 ranks pays for 64.
package shmem

import (
	"fmt"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/topo"
	"putget/internal/transport"
)

// World is a SHMEM job: one PE per node of a cluster, with teams.
type World struct {
	CL        *cluster.Cluster
	Transport transport.Transport

	n   int
	pes []*PE // built on first touch

	// Symmetric-heap bookkeeping. The bump pointer lives on the World —
	// allocation order is global, so offsets are symmetric by
	// construction and a PE built late (lazily) inherits the same layout.
	heapSize uint64
	heapBrk  uint64

	// Every PE's registered heap (indexed by rank), the set of
	// established connections, and the root team.
	regions []transport.Region
	conns   map[[2]int]bool
	root    *Team
}

// PE is one processing element: a GPU plus its communication state.
type PE struct {
	Rank int
	N    int // world size
	Node *cluster.Node

	world *World

	heapBase memspace.Addr    // symmetric heap in local device memory
	local    transport.Region // local heap, registered with the fabric

	// One endpoint per connected peer (nil until World.Connect) and the
	// per-peer outstanding-put counters.
	dataTo []transport.Endpoint
	outTo  []int
}

// NewWorld builds the paper's two-GPU job: a 2-rank world over the
// EXTOLL fabric (the paper's primary testbed) on a topo.Direct cable,
// with the given symmetric heap size.
func NewWorld(p cluster.Params, heapSize uint64) *World {
	return NewWorldN(transport.KindExtoll, topo.Spec{Kind: topo.Direct}, 2, p, heapSize)
}

// N returns the world size in ranks.
func (w *World) N() int { return w.n }

// PE returns rank r's processing element. The PE — and the cluster node
// underneath it — is materialized on first touch: the node's CPU/GPU/NIC
// are built, the symmetric heap is carved out of device memory and
// registered with the fabric. Ranks a job never touches are never built.
func (w *World) PE(r int) *PE {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("shmem: rank %d out of range (world size %d)", r, w.n))
	}
	if pe := w.pes[r]; pe != nil {
		return pe
	}
	nd := w.CL.Node(r)
	pe := &PE{Rank: r, N: w.n, Node: nd, world: w}
	// The heap is the node's first device allocation, so heapBase — and
	// with it every symmetric offset — is identical on every rank no
	// matter when the rank is materialized.
	pe.heapBase = nd.AllocDev(w.heapSize)
	pe.dataTo = make([]transport.Endpoint, w.n)
	pe.outTo = make([]int, w.n)
	w.pes[r] = pe
	w.regions[r] = w.Transport.Register(nd, pe.heapBase, w.heapSize)
	pe.local = w.regions[r]
	return pe
}

// Shutdown terminates the world's parked simulation processes.
func (w *World) Shutdown() { w.CL.Shutdown() }

// Malloc allocates n bytes (8-byte aligned) at the same symmetric offset
// on every PE. The bump pointer is world state, so heaps cannot diverge
// per rank and lazily-built PEs see the same layout as eager ones.
func (w *World) Malloc(n uint64) uint64 {
	off := (w.heapBrk + 7) &^ 7
	w.heapBrk = off + n
	if w.heapBrk > w.heapSize {
		panic(fmt.Sprintf("shmem: symmetric heap exhausted (%d of %d bytes used)", w.heapBrk, w.heapSize))
	}
	return off
}

// Addr converts a symmetric offset to this PE's local device address.
func (pe *PE) Addr(off uint64) memspace.Addr {
	return pe.heapBase + memspace.Addr(off)
}

// HostWrite/HostRead are zero-time setup helpers.
func (pe *PE) HostWrite(off uint64, data []byte) error {
	return pe.Node.GPU.HostWrite(pe.Addr(off), data)
}

// HostRead copies out of the symmetric heap without charging time.
func (pe *PE) HostRead(off uint64, data []byte) error {
	return pe.Node.GPU.HostRead(pe.Addr(off), data)
}

// WaitUntil blocks until the local symmetric word at off equals want —
// device-memory polling, claim 3's preferred completion detection.
func (pe *PE) WaitUntil(w *gpusim.Warp, off uint64, want uint64) {
	w.PollGlobalU64(pe.Addr(off), want)
}

// Run launches body as a single-block, full-warp kernel on every PE and
// returns when all complete; it panics on deadlock. This is the SPMD
// entry point — body runs with 32 lanes, so coalesced sweeps and the
// thread-collective descriptor paths are available. This is the root
// team's Run: it materializes every rank; jobs that span a subset should
// Run their Team instead.
func (w *World) Run(body func(pe *PE, warp *gpusim.Warp)) { w.root.Run(body) }

// launch starts body on each given PE and drives the engine until all
// kernels complete; Team.Run launches through it.
func (w *World) launch(pes []*PE, body func(pe *PE, warp *gpusim.Warp)) {
	dones := make([]interface{ Done() bool }, len(pes))
	for i, pe := range pes {
		pe := pe
		dones[i] = pe.Node.GPU.Launch(gpusim.KernelConfig{Blocks: 1, ThreadsPerBlock: 32}, func(warp *gpusim.Warp) {
			body(pe, warp)
		})
	}
	w.CL.E.Run()
	for i, d := range dones {
		if !d.Done() {
			panic(fmt.Sprintf("shmem: PE %d did not complete (deadlock?)", pes[i].Rank))
		}
	}
}
