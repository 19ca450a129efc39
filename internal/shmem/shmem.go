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
//     fabric's completion streams are touched only by Quiet.
//
// The library runs on a cluster of either shape: the two-node pair
// (NewWorld/NewWorldOn — one PE per GPU over a topo.Direct cable) or an
// N-node switched cluster (NewWorldN — one PE per node of a fat-tree or
// 3D-torus topo.Net). It is written against the transport.Endpoint
// abstraction, so the same code runs SHMEM over EXTOLL RMA or over
// InfiniBand Verbs.
// Every data object lives in a symmetric heap at identical offsets on all
// PEs, so remote addresses are derived, never exchanged.
//
// N-rank worlds are a thin wrapper over a root Team (team.go): every
// rank subset — split halves, strided grids, a shrunk team routing
// around a dead node — is a Team, and all collectives (collectives.go)
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

// World is a SHMEM job: one PE per node of a cluster. Pair worlds
// (NewWorld, NewWorldOn) run on the two-node Direct cluster with the
// pair API (Put/Get/Barrier to the one peer) and no teams; N-rank worlds
// (NewWorldN) run on a switched cluster with teams.
type World struct {
	CL        *cluster.Cluster
	Transport transport.Transport

	n   int
	pes []*PE // lazily built for N-rank worlds; eager for pairs

	// Symmetric-heap bookkeeping. The bump pointer lives on the World —
	// allocation order is global, so offsets are symmetric by
	// construction and a PE built late (lazily) inherits the same layout.
	heapSize uint64
	heapBrk  uint64

	// N-rank state: every PE's registered heap (indexed by rank), the
	// set of established connections, and the root team (nil on a pair
	// world).
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

	heapBase memspace.Addr // symmetric heap in local device memory

	local transport.Region // local heap, registered with the fabric
	peer  transport.Region // peer heap, as a remote put/get target (pair)

	data transport.Endpoint // bulk puts and gets (pair)
	sync transport.Endpoint // barrier immediates and atomics (pair)

	// N-rank state: one endpoint per connected peer (nil until
	// World.Connect) and the per-peer outstanding-put counters.
	dataTo []transport.Endpoint
	outTo  []int

	// internal symmetric objects (offsets into the heap)
	barrierOff  uint64 // arrival flag written by the peer (pair)
	barrierSeq  uint64 // software barrier epoch (pair)
	outstanding int    // puts not yet quiesced (pair)
}

// dataConn and syncConn separate bulk puts from barrier/atomic traffic so
// Quiet never consumes a synchronization completion. On EXTOLL they map to
// two RMA ports; on InfiniBand to two queue pairs.
const (
	dataConn = 0
	syncConn = 1
)

// NewWorld builds a two-PE world over the EXTOLL fabric (the paper's
// primary testbed) with the given symmetric heap size.
func NewWorld(p cluster.Params, heapSize uint64) *World {
	return NewWorldOn(transport.KindExtoll, p, heapSize)
}

// NewWorldOn builds a two-PE world over the chosen fabric. The library
// code above the transport layer is identical for both; only descriptor
// formats and completion mechanisms differ underneath.
func NewWorldOn(k transport.Kind, p cluster.Params, heapSize uint64) *World {
	cl := cluster.NewClusterOn(fabricOf(k), topo.Spec{Kind: topo.Direct}, 2, p)
	tr := transport.NewCluster(k, cl)
	w := &World{CL: cl, Transport: tr, n: 2, heapSize: heapSize, conns: map[[2]int]bool{}}
	mk := func(rank int) *PE {
		pe := &PE{Rank: rank, N: 2, Node: cl.Node(rank), world: w}
		pe.heapBase = pe.Node.AllocDev(heapSize)
		return pe
	}
	w.pes = []*PE{mk(0), mk(1)}
	regs := [2]transport.Region{
		tr.Register(w.pes[0].Node, w.pes[0].heapBase, heapSize),
		tr.Register(w.pes[1].Node, w.pes[1].heapBase, heapSize),
	}
	for i, pe := range w.pes {
		pe.local = regs[i]
		pe.peer = regs[1-i]
	}
	// On InfiniBand the queues live in GPU device memory (the paper's
	// bufOnGPU placement — claim 3's minimal-PCIe completion detection)
	// and the sync connection provisions the fetch-add landing buffer.
	hint := transport.ConnHint{QueuesOnGPU: k == transport.KindIB}
	syncHint := hint
	syncHint.Atomics = true
	w.pes[0].data, w.pes[1].data = tr.Connect(dataConn, hint)
	w.pes[0].sync, w.pes[1].sync = tr.Connect(syncConn, syncHint)
	// The barrier flag is the first symmetric allocation on every PE.
	off := w.Malloc(8)
	for _, pe := range w.pes {
		pe.barrierOff = off
	}
	return w
}

// N returns the world size in ranks.
func (w *World) N() int { return w.n }

// PE returns rank r's processing element. On an N-rank world the PE —
// and the cluster node underneath it — is materialized on first touch:
// the node's CPU/GPU/NIC are built, the symmetric heap is carved out of
// device memory and registered with the fabric. Ranks a job never
// touches are never built.
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

// ---- device-side operations (called from GPU kernels) ----

// Put copies n bytes from the local symmetric offset src to the peer's
// symmetric offset dst. Completion is asynchronous; call Quiet to wait.
func (pe *PE) Put(w *gpusim.Warp, dst, src uint64, n int) {
	pe.data.DevPut(w, pe.local, src, pe.peer, dst, n, transport.FlagLocalComp)
	pe.outstanding++
}

// PutImm writes one 64-bit value to the peer's symmetric offset without
// any source DMA (claim 3's cheapest possible transfer).
func (pe *PE) PutImm(w *gpusim.Warp, dst uint64, value uint64) {
	pe.data.DevPutImm(w, value, pe.peer, dst, 8, transport.FlagLocalComp)
	pe.outstanding++
}

// Get copies n bytes from the peer's symmetric offset src into the local
// offset dst and blocks until the data has arrived.
func (pe *PE) Get(w *gpusim.Warp, dst, src uint64, n int) {
	pe.data.DevGet(w, pe.local, dst, pe.peer, src, n)
}

// Quiet blocks until every outstanding Put has completed locally (the
// EXTOLL requester notification / IB send CQE — local completion, as
// shmem_quiet requires on a fabric with in-order delivery).
func (pe *PE) Quiet(w *gpusim.Warp) {
	for pe.outstanding > 0 {
		//putget:allow boundedwait -- shmem_quiet is unbounded by the OpenSHMEM spec: it waits on exactly the puts this PE issued, each of which the reliable fabric completes
		pe.data.DevWaitComplete(w, transport.CompLocal)
		pe.outstanding--
	}
}

// Fence orders puts; with a single in-order connection it is Quiet.
func (pe *PE) Fence(w *gpusim.Warp) { pe.Quiet(w) }

// WaitUntil blocks until the local symmetric word at off equals want —
// device-memory polling, claim 3's preferred completion detection.
func (pe *PE) WaitUntil(w *gpusim.Warp, off uint64, want uint64) {
	w.PollGlobalU64(pe.Addr(off), want)
}

// Barrier synchronizes both PEs: each increments its epoch, writes it to
// the peer's barrier flag with an immediate put over the sync connection,
// and polls its own flag in device memory until the peer's epoch arrives.
func (pe *PE) Barrier(w *gpusim.Warp) {
	pe.barrierSeq++
	pe.sync.DevPutImm(w, pe.barrierSeq, pe.peer, pe.barrierOff, 8, transport.FlagLocalComp)
	//putget:allow boundedwait -- shmem_barrier_all is unbounded by the OpenSHMEM spec: it reaps this PE's own flag put before polling the peer's epoch
	pe.sync.DevWaitComplete(w, transport.CompLocal)
	pe.WaitUntil(w, pe.barrierOff, pe.barrierSeq)
}

// FetchAdd atomically adds addend to the peer's symmetric 64-bit word at
// off and returns the previous value.
func (pe *PE) FetchAdd(w *gpusim.Warp, off uint64, addend uint64) uint64 {
	return pe.sync.DevFetchAdd(w, addend, pe.peer, off)
}

// Run launches body as a single-block, full-warp kernel on every PE and
// returns when all complete; it panics on deadlock. This is the SPMD
// entry point — body runs with 32 lanes, so coalesced sweeps and the
// thread-collective descriptor paths are available. On an N-rank world
// this is the root team's Run: it materializes every rank; jobs that
// span a subset should Run their Team instead.
func (w *World) Run(body func(pe *PE, warp *gpusim.Warp)) {
	if w.root == nil {
		w.launch(w.pes, body)
		return
	}
	w.root.Run(body)
}

// launch starts body on each given PE and drives the engine until all
// kernels complete; shared by pair Run and Team.Run.
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
