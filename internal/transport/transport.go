// Package transport is the fabric-agnostic put/get layer: one Endpoint
// data-plane API implemented over both of the paper's fabrics (EXTOLL RMA
// and InfiniBand Verbs). The paper's point is that the two are the same
// one-sided put/get idea behind different descriptor formats; this package
// is that observation as an interface. The adapters are pure delegation —
// every virtual-time cost (GPU instructions, PCIe transactions, NIC
// pipeline stages) is charged by the underlying core API, so a benchmark
// ported to Endpoint reproduces its fabric's numbers exactly.
//
// Setup plane: a Transport registers memory Regions and connects Endpoint
// pairs (EXTOLL ports, IB queue pairs). Data plane: an Endpoint puts,
// gets and fetch-adds between Regions, and reaps Completions — local
// ("my descriptor finished", EXTOLL requester notification / IB send CQE)
// or remote ("data arrived here", EXTOLL completer notification / IB recv
// CQE consumed by a write-with-immediate). A third backend plugs in by
// implementing the two interfaces; see DESIGN.md.
package transport

import (
	"putget/internal/cluster"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

// Kind names a fabric backend.
type Kind int

// Supported fabrics.
const (
	KindExtoll Kind = iota
	KindIB
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindExtoll {
		return "EXTOLL"
	}
	return "InfiniBand"
}

// Completion flags for put operations. A put with no flags is fire-and-
// forget: no completion is generated anywhere.
const (
	// FlagLocalComp requests a local completion at the origin when the
	// operation is done (EXTOLL requester notification / IB signaled CQE).
	FlagLocalComp = 1 << iota
	// FlagRemoteComp requests a completion at the destination when the
	// data lands (EXTOLL completer notification / IB write-with-immediate,
	// which consumes a preposted arrival slot — see HostPrepostArrivals).
	FlagRemoteComp
)

// CompClass selects which completion stream to reap.
type CompClass int

const (
	// CompLocal reaps origin-side completions of this endpoint's own
	// operations.
	CompLocal CompClass = iota
	// CompRemote reaps arrival-side completions for data landed at this
	// endpoint.
	CompRemote
)

// Completion is one reaped completion event.
type Completion struct {
	// Size is the payload byte count the fabric reported (0 where the
	// fabric does not carry one).
	Size int
	// Value is the operation's sequence value when the fabric carries one
	// (IB immediate); the paper's EXTOLL notifications carry no sequence.
	Value uint64
	// Err reports a failed operation (protection fault, retry exhaustion,
	// requester timeout).
	Err bool
	// Timeout reports that the failure was specifically a lost network
	// response (EXTOLL requester timeout, IB retry/RNR exhaustion).
	Timeout bool
}

// ConnHint tunes one Connect call. The zero value picks each fabric's
// defaults; EXTOLL ignores the ring sizes (its notification rings are
// driver-allocated per port).
type ConnHint struct {
	// SendEntries/RecvEntries/CompEntries size the IB work and completion
	// rings (defaults 512/64/512).
	SendEntries, RecvEntries, CompEntries int
	// QueuesOnGPU places the IB rings in GPU device memory instead of
	// host memory (the paper's dev2dev-bufOnGPU placement).
	QueuesOnGPU bool
	// Atomics provisions fetch-add support: the IB adapter allocates and
	// registers a small device-memory landing buffer per endpoint for the
	// returned old value. Off by default so connections that never
	// fetch-add keep an identical allocation layout.
	Atomics bool
}

// Region is registered memory a put/get can address: a window the fabric
// can reach remotely (EXTOLL network logical address / IB memory region
// keys).
type Region struct {
	// Base and Size locate the window in the owning node's address space.
	Base memspace.Addr
	Size uint64

	kind Kind
	nla  extoll.NLA
	mr   *ibsim.MR
}

// NLA exposes the EXTOLL network logical address of the region — an
// escape hatch for cost-model experiments that build raw work requests.
func (r Region) NLA() extoll.NLA {
	if r.kind != KindExtoll || r.mr != nil {
		panic("transport: NLA on non-EXTOLL region")
	}
	return r.nla
}

// MR exposes the InfiniBand memory region, for experiments that build raw
// WQEs.
func (r Region) MR() *ibsim.MR {
	if r.mr == nil {
		panic("transport: MR on non-InfiniBand region")
	}
	return r.mr
}

// Transport is the setup plane: build Regions and connected Endpoint
// pairs over a cluster — the two-node Direct testbed or an N-node
// switched fabric.
type Transport interface {
	// Kind names the backend.
	Kind() Kind
	// Cluster returns the cluster this transport drives.
	Cluster() *cluster.Cluster
	// Register makes [base, base+size) of node n's memory remotely
	// addressable.
	Register(n *cluster.Node, base memspace.Addr, size uint64) Region
	// Connect opens connection idx between nodes 0 and 1 and returns the
	// endpoint pair (a on node 0, b on node 1). idx selects the EXTOLL
	// port on both nodes; IB allocates a fresh queue pair per call. Calls
	// must use distinct idx values and must not be mixed with ConnectPair
	// calls between the same two nodes.
	Connect(idx int, hint ConnHint) (a, b Endpoint)
	// ConnectPair opens a connection between any two distinct nodes and
	// returns the endpoint pair in argument order. Connection identities
	// (EXTOLL ports, IB queue pairs) are allocated per node, and on a
	// switched net the routing tables are bound so each side's packets
	// reach the other.
	ConnectPair(a, b *cluster.Node, hint ConnHint) (ea, eb Endpoint)
}

// Endpoint is the data plane: one side of a connection. Dev* methods run
// on a GPU warp and charge GPU instruction + PCIe costs; Host* mirrors run
// on a CPU proc. Operations name memory as (Region, offset) pairs — src
// local to this endpoint's node, dst on the peer (and vice versa for
// gets).
//
// Completion semantics: an operation posted with FlagLocalComp must be
// reaped exactly once from CompLocal; one posted with FlagRemoteComp is
// reaped at the peer from CompRemote. DevGet/HostGet and the fetch-adds
// are synchronous — they return when the data (or old value) has landed —
// and consume their own completions.
type Endpoint interface {
	// Node returns the node this endpoint lives on.
	Node() *cluster.Node

	DevPut(w *gpusim.Warp, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int)
	// DevPutImm writes size (≤ 8) bytes of an immediate value carried in
	// the descriptor itself — no source buffer, no payload DMA.
	DevPutImm(w *gpusim.Warp, value uint64, dst Region, dstOff uint64, size, flags int)
	// DevPutCollective is DevPut with the descriptor write spread across
	// the lanes of the calling warp (the paper's §VI thread-collaborative
	// posting).
	DevPutCollective(w *gpusim.Warp, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int)
	// DevGet reads size bytes from the peer's src region into the local
	// dst region and returns once the data has landed locally.
	DevGet(w *gpusim.Warp, dst Region, dstOff uint64, src Region, srcOff uint64, size int)
	// DevFetchAdd atomically adds addend to the 8-byte word at the peer's
	// dst and returns the pre-add value. Requires ConnHint.Atomics on IB.
	DevFetchAdd(w *gpusim.Warp, addend uint64, dst Region, dstOff uint64) uint64
	DevTryComplete(w *gpusim.Warp, c CompClass) (Completion, bool)
	DevWaitComplete(w *gpusim.Warp, c CompClass) Completion
	DevWaitCompleteTimeout(w *gpusim.Warp, c CompClass, timeout sim.Duration) (Completion, bool)

	HostPut(p *sim.Proc, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int)
	HostPutImm(p *sim.Proc, value uint64, dst Region, dstOff uint64, size, flags int)
	HostGet(p *sim.Proc, dst Region, dstOff uint64, src Region, srcOff uint64, size int)
	HostFetchAdd(p *sim.Proc, addend uint64, dst Region, dstOff uint64) uint64
	HostTryComplete(p *sim.Proc, c CompClass) (Completion, bool)
	HostWaitComplete(p *sim.Proc, c CompClass) Completion
	HostWaitCompleteTimeout(p *sim.Proc, c CompClass, timeout sim.Duration) (Completion, bool)

	// HostPrepostArrivals makes the endpoint ready to reap n remote-
	// completion puts from the peer. IB posts n receive WQEs (a
	// write-with-immediate consumes one); EXTOLL completer notifications
	// need no preposting, so it is a no-op there.
	HostPrepostArrivals(p *sim.Proc, n int)
}

// New builds the adapter for a fabric kind over a testbed created with
// the matching cluster constructor.
func New(k Kind, tb *cluster.Testbed) Transport { return NewCluster(k, tb.Cluster) }

// NewCluster builds the adapter for a fabric kind over a cluster built
// with the matching cluster.NewClusterOn fabric.
func NewCluster(k Kind, cl *cluster.Cluster) Transport {
	if k == KindExtoll {
		return NewExtoll(cl)
	}
	return NewVerbs(cl)
}
