package transport

import (
	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

// Extoll adapts core.RMA to the Transport/Endpoint interfaces. Every
// method is pure delegation: the RMA layer charges the exact WR-creation,
// MMIO and notification-consume costs of the paper's EXTOLL model, so a
// benchmark running over this adapter is cycle-identical to one written
// against core.RMA directly.
type Extoll struct {
	cl *cluster.Cluster
	// rmas binds one core.RMA per node on first touch. Lookup-only map.
	rmas map[*cluster.Node]*core.RMA
	// nextPort allocates ConnectPair ports per node: the two ends of a
	// connection generally get different port numbers (each node numbers
	// its own connections independently).
	nextPort map[*cluster.Node]int
}

// NewExtoll builds the EXTOLL adapter over a cluster from
// cluster.NewClusterOn(cluster.FabricExtoll, ...) or NewExtollPair.
func NewExtoll(cl *cluster.Cluster) *Extoll {
	return &Extoll{
		cl:       cl,
		rmas:     map[*cluster.Node]*core.RMA{},
		nextPort: map[*cluster.Node]int{},
	}
}

// Kind implements Transport.
func (t *Extoll) Kind() Kind { return KindExtoll }

// Cluster implements Transport.
func (t *Extoll) Cluster() *cluster.Cluster { return t.cl }

// RMA exposes the RMA binding of node i for cost-model experiments that
// need the raw EXTOLL API.
func (t *Extoll) RMA(i int) *core.RMA { return t.rma(t.cl.Node(i)) }

func (t *Extoll) rma(n *cluster.Node) *core.RMA {
	if r := t.rmas[n]; r != nil {
		return r
	}
	t.cl.IndexOf(n) // panics on foreign nodes
	r := core.NewRMA(n)
	t.rmas[n] = r
	return r
}

// Register implements Transport: the window enters node n's address
// translation unit and becomes remotely addressable.
func (t *Extoll) Register(n *cluster.Node, base memspace.Addr, size uint64) Region {
	return Region{Base: base, Size: size, kind: KindExtoll, nla: t.rma(n).Register(base, size)}
}

// Connect implements Transport: port idx is opened on nodes 0 and 1 and
// the two are connected. EXTOLL has no per-connection rings to size, so
// the hint only matters for its Atomics field (a no-op here — EXTOLL
// fetch-add needs no landing buffer; the old value returns in the
// responder notification).
func (t *Extoll) Connect(idx int, hint ConnHint) (Endpoint, Endpoint) {
	return t.connect(t.cl.Node(0), idx, t.cl.Node(1), idx)
}

// ConnectPair implements Transport: each node allocates its next free
// port and the ports are cross-connected (EXTOLL supports asymmetric
// port numbers).
func (t *Extoll) ConnectPair(na, nb *cluster.Node, hint ConnHint) (Endpoint, Endpoint) {
	if na == nb {
		panic("transport: ConnectPair needs two distinct nodes")
	}
	pa, pb := t.nextPort[na], t.nextPort[nb]
	t.nextPort[na] = pa + 1
	t.nextPort[nb] = pb + 1
	return t.connect(na, pa, nb, pb)
}

// connect opens port pa on na and pb on nb, connects them, and binds the
// routes that carry packets originating from each port to the other node.
func (t *Extoll) connect(na *cluster.Node, pa int, nb *cluster.Node, pb int) (Endpoint, Endpoint) {
	ra, rb := t.rma(na), t.rma(nb)
	ra.OpenPort(pa)
	rb.OpenPort(pb)
	extoll.ConnectPorts(na.Extoll, pa, nb.Extoll, pb)
	t.cl.BindExtoll(na, pa, nb)
	t.cl.BindExtoll(nb, pb, na)
	return &extEndpoint{r: ra, node: na, port: pa},
		&extEndpoint{r: rb, node: nb, port: pb}
}

// extEndpoint is one side of an EXTOLL port connection.
type extEndpoint struct {
	r    *core.RMA
	node *cluster.Node
	port int
}

func extFlags(flags int) int {
	f := 0
	if flags&FlagLocalComp != 0 {
		f |= extoll.FlagReqNotif
	}
	if flags&FlagRemoteComp != 0 {
		f |= extoll.FlagCompNotif
	}
	return f
}

func extClass(c CompClass) int {
	if c == CompLocal {
		return extoll.ClassRequester
	}
	return extoll.ClassCompleter
}

// Node implements Endpoint.
func (e *extEndpoint) Node() *cluster.Node { return e.node }

// DevPut implements Endpoint.
func (e *extEndpoint) DevPut(w *gpusim.Warp, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) {
	e.r.DevPut(w, e.port, src.nla+extoll.NLA(srcOff), dst.nla+extoll.NLA(dstOff), size, extFlags(flags))
}

// DevPutImm implements Endpoint.
func (e *extEndpoint) DevPutImm(w *gpusim.Warp, value uint64, dst Region, dstOff uint64, size, flags int) {
	e.r.DevPutImm(w, e.port, value, dst.nla+extoll.NLA(dstOff), size, extFlags(flags))
}

// DevPutCollective implements Endpoint.
func (e *extEndpoint) DevPutCollective(w *gpusim.Warp, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) {
	e.r.DevPutCollective(w, e.port, src.nla+extoll.NLA(srcOff), dst.nla+extoll.NLA(dstOff), size, extFlags(flags))
}

// DevGet implements Endpoint: the get requests a completer notification
// (EXTOLL raises it at the requesting NIC when the response data lands)
// and consumes it before returning.
func (e *extEndpoint) DevGet(w *gpusim.Warp, dst Region, dstOff uint64, src Region, srcOff uint64, size int) {
	e.r.DevGet(w, e.port, src.nla+extoll.NLA(srcOff), dst.nla+extoll.NLA(dstOff), size, extoll.FlagCompNotif)
	//putget:allow boundedwait -- get is synchronous by definition: the wait for the response IS the operation; bounded gets go through DevTryComplete/DevWaitCompleteTimeout
	e.r.DevWaitNotif(w, e.port, extoll.ClassCompleter)
}

// DevFetchAdd implements Endpoint: the old value travels back in the
// responder's completer notification cookie.
func (e *extEndpoint) DevFetchAdd(w *gpusim.Warp, addend uint64, dst Region, dstOff uint64) uint64 {
	e.r.DevFetchAdd(w, e.port, addend, dst.nla+extoll.NLA(dstOff))
	//putget:allow boundedwait -- fetch-add is synchronous by definition: its return value arrives in the completer notification it waits on
	_, old := e.r.DevWaitNotifValue(w, e.port, extoll.ClassCompleter)
	return old
}

// DevTryComplete implements Endpoint.
func (e *extEndpoint) DevTryComplete(w *gpusim.Warp, c CompClass) (Completion, bool) {
	size, ok := e.r.DevTryConsumeNotif(w, e.port, extClass(c))
	return Completion{Size: size}, ok
}

// DevWaitComplete implements Endpoint.
func (e *extEndpoint) DevWaitComplete(w *gpusim.Warp, c CompClass) Completion {
	return Completion{Size: e.r.DevWaitNotif(w, e.port, extClass(c))}
}

// DevWaitCompleteTimeout implements Endpoint.
func (e *extEndpoint) DevWaitCompleteTimeout(w *gpusim.Warp, c CompClass, timeout sim.Duration) (Completion, bool) {
	nr, ok := e.r.DevWaitNotifTimeout(w, e.port, extClass(c), timeout)
	return Completion{Size: nr.Size, Err: nr.Err, Timeout: nr.Timeout}, ok
}

// HostPut implements Endpoint.
func (e *extEndpoint) HostPut(p *sim.Proc, src Region, srcOff uint64, dst Region, dstOff uint64, size, flags int) {
	e.r.HostPut(p, e.port, src.nla+extoll.NLA(srcOff), dst.nla+extoll.NLA(dstOff), size, extFlags(flags))
}

// HostPutImm implements Endpoint.
func (e *extEndpoint) HostPutImm(p *sim.Proc, value uint64, dst Region, dstOff uint64, size, flags int) {
	e.r.HostPutImm(p, e.port, value, dst.nla+extoll.NLA(dstOff), size, extFlags(flags))
}

// HostGet implements Endpoint.
func (e *extEndpoint) HostGet(p *sim.Proc, dst Region, dstOff uint64, src Region, srcOff uint64, size int) {
	e.r.HostGet(p, e.port, src.nla+extoll.NLA(srcOff), dst.nla+extoll.NLA(dstOff), size, extoll.FlagCompNotif)
	//putget:allow boundedwait -- get is synchronous by definition: the wait for the response IS the operation
	e.r.HostWaitNotif(p, e.port, extoll.ClassCompleter)
}

// HostFetchAdd implements Endpoint.
func (e *extEndpoint) HostFetchAdd(p *sim.Proc, addend uint64, dst Region, dstOff uint64) uint64 {
	return e.r.HostFetchAdd(p, e.port, addend, dst.nla+extoll.NLA(dstOff))
}

// HostTryComplete implements Endpoint.
func (e *extEndpoint) HostTryComplete(p *sim.Proc, c CompClass) (Completion, bool) {
	size, ok := e.r.HostTryConsumeNotif(p, e.port, extClass(c))
	return Completion{Size: size}, ok
}

// HostWaitComplete implements Endpoint.
func (e *extEndpoint) HostWaitComplete(p *sim.Proc, c CompClass) Completion {
	return Completion{Size: e.r.HostWaitNotif(p, e.port, extClass(c))}
}

// HostWaitCompleteTimeout implements Endpoint.
func (e *extEndpoint) HostWaitCompleteTimeout(p *sim.Proc, c CompClass, timeout sim.Duration) (Completion, bool) {
	nr, ok := e.r.HostWaitNotifTimeout(p, e.port, extClass(c), timeout)
	return Completion{Size: nr.Size, Err: nr.Err, Timeout: nr.Timeout}, ok
}

// HostPrepostArrivals implements Endpoint: EXTOLL completer notifications
// need no preposted descriptors.
func (e *extEndpoint) HostPrepostArrivals(p *sim.Proc, n int) {}
