package topo

import (
	"fmt"

	"putget/internal/sim"
	"putget/internal/wire"
)

// LinkConfig gives every cable in the fabric the same physics: a
// wire.Cable's serialization bandwidth plus fixed per-hop latency
// (propagation + switch crossing).
type LinkConfig struct {
	BytesPerSecond float64
	Latency        sim.Duration
}

// Net is an N-node fabric carrying packets of type T. Each node owns a
// Port (satisfying wire.Conduit[T]) that injects into the fabric and
// receives ejected packets. On a switched net the destination of a
// packet is resolved from a sender-local routing key — extracted by the
// key function (an EXTOLL origin port, an IB source QPN) and bound per
// node with Bind at connection-setup time — mirroring how real fabrics
// route on connection state rather than payload inspection. A Direct
// net delivers every packet to the other node.
type Net[T any] struct {
	e       *sim.Engine
	g       *graph
	name    string
	key     func(T) int
	corrupt func(T) T

	ports []*Port[T]
	inbox []*sim.Chan[T]
	// bind[node] maps a routing key (local to that node) to the
	// destination node index; nil on a Direct net. Lookup-only: never
	// iterated.
	bind []map[int]int

	flows       map[flowKey]*flow
	unreachable uint64

	hopFree []*hop[T]     // idle hop ops
	arrive  func(*hop[T]) // (*hop[T]).arrived, built once
}

type flowKey struct{ src, dst int }

// flow caches one (src, dst) pair's path. Adaptive routing may re-pick
// the path, but only while inFlight is zero, so every packet of a burst
// rides the same cables, per-flow FIFO order is preserved, and a packet
// in flight finds its own path in fl.path at every hop.
type flow struct {
	path     []*channel
	dst      int
	inFlight int
}

// NewNet builds the graph for spec over n nodes. The key function
// extracts the sender-local routing key from a packet; pair it with Bind
// to resolve destinations on a switched net.
func NewNet[T any](e *sim.Engine, spec Spec, n int, cfg LinkConfig, name string, key func(T) int) *Net[T] {
	if name == "" {
		name = "net"
	}
	nt := &Net[T]{
		e:     e,
		g:     buildGraph(e, spec, n, name, cfg.BytesPerSecond, cfg.Latency),
		name:  name,
		key:   key,
		flows: make(map[flowKey]*flow),
		// A method expression of a generic type allocates where it is
		// evaluated, so the stage is evaluated here, once per net.
		arrive: (*hop[T]).arrived,
	}
	nt.ports = make([]*Port[T], n)
	nt.inbox = make([]*sim.Chan[T], n)
	if spec.Kind != Direct {
		nt.bind = make([]map[int]int, n)
	}
	for i := 0; i < n; i++ {
		nt.ports[i] = &Port[T]{nt: nt, node: i, name: fmt.Sprintf("%s.n%d", name, i)}
		nt.inbox[i] = sim.NewChan[T](e)
		if nt.bind != nil {
			nt.bind[i] = make(map[int]int)
		}
	}
	return nt
}

// Port returns node i's attachment point.
func (nt *Net[T]) Port(i int) *Port[T] { return nt.ports[i] }

// Inject returns node i's injection cable — on a Direct net the whole
// path to the peer — so the owner can name it, cap its egress queue or
// install a fault injector.
func (nt *Net[T]) Inject(i int) *wire.Cable { return &nt.g.inject[i].Cable }

// SetCorrupter sets how a cable's corrupt fault verdict damages a packet
// (e.g. sets a Poisoned flag the receiver's CRC check trips on); nil
// leaves payloads intact.
func (nt *Net[T]) SetCorrupter(f func(T) T) { nt.corrupt = f }

// Bind routes packets injected at node whose key extractor yields key to
// dst. Transports call this when a connection is set up; a Direct net
// ignores it.
func (nt *Net[T]) Bind(node, key, dst int) {
	if nt.bind != nil {
		nt.bind[node][key] = dst
	}
}

// Routers returns the switch count (torus: one per grid point; fat-tree:
// leaves + spines; Direct: none).
func (nt *Net[T]) Routers() int { return nt.g.routers }

// Unreachable counts packets dropped at injection because no live path
// (or no binding) existed for their destination.
func (nt *Net[T]) Unreachable() uint64 { return nt.unreachable }

// RouteMemoStats reports the deterministic route memo: distinct
// {attachment router, destination node} segments resolved, and how many
// path resolutions were served from the memo instead of recomputed.
func (nt *Net[T]) RouteMemoStats() (entries int, hits uint64) {
	return len(nt.g.detSeg), nt.g.detSegHits
}

// Hops returns the minimal live router-to-router hop count between two
// nodes, -1 if disconnected. Exposed for tests and experiments.
func (nt *Net[T]) Hops(src, dst int) int {
	if nt.g.downNode[src] || nt.g.downNode[dst] {
		return -1
	}
	if nt.g.spec.Kind == Direct {
		return 0
	}
	return nt.g.distTo(nt.g.nodeRouter[dst])[nt.g.nodeRouter[src]]
}

// PathNames returns the cable names a fresh (src, dst) flow would take
// right now — deterministic-mode paths are stable; adaptive paths
// reflect current congestion. For tests and route inspection.
func (nt *Net[T]) PathNames(src, dst int) []string {
	p := nt.g.path(src, dst, nt.g.spec.Routing == Adaptive)
	if p == nil {
		return nil
	}
	names := make([]string, len(p))
	for i, ch := range p {
		names[i] = ch.Name()
	}
	return names
}

// MaxDepth reports the deepest egress queue observed on any single
// cable — the congestion high-water mark.
func (nt *Net[T]) MaxDepth() int {
	max := 0
	deepest := func(chs []*channel) {
		for _, ch := range chs {
			if d := ch.MaxDepth(); d > max {
				max = d
			}
		}
	}
	for _, chs := range nt.g.adj {
		deepest(chs)
	}
	deepest(nt.g.inject)
	deepest(nt.g.eject)
	return max
}

// flowFor returns the cached flow, (re)computing its path when allowed:
// always on first use; in Adaptive mode also whenever the flow has no
// packets in flight (congestion may have moved since the last burst).
func (nt *Net[T]) flowFor(src, dst int) *flow {
	k := flowKey{src, dst}
	fl := nt.flows[k]
	if fl == nil {
		fl = &flow{dst: dst}
		nt.flows[k] = fl
	}
	adaptive := nt.g.spec.Routing == Adaptive
	if fl.path == nil || (adaptive && fl.inFlight == 0) {
		fl.path = nt.g.path(src, dst, adaptive)
	}
	return fl
}

// send injects pkt at node src with the upstream stage ready at `ready`
// (the cable's cut-through floor). The returned time is when the packet
// leaves the injection cable — its delivery time on a Direct net, a lower
// bound on delivery across a switch (the Conduit contract).
func (nt *Net[T]) send(src int, pkt T, wireBytes int, ready sim.Time) (sim.Time, bool) {
	dst := 1 - src // a Direct net's only destination
	if nt.bind != nil {
		var bound bool
		if dst, bound = nt.bind[src][nt.key(pkt)]; !bound {
			panic(fmt.Sprintf("topo: %s.n%d sent packet with unbound routing key %d", nt.name, src, nt.key(pkt)))
		}
	}
	fl := nt.flowFor(src, dst)
	if fl.path == nil {
		nt.unreachable++
		if nt.e.Traced() {
			nt.e.Tracev(nt.ports[src].name, "fault", "fault: net unreachable n%d->n%d (%dB)", src, dst, wireBytes)
		}
		return nt.e.Now(), false
	}
	fl.inFlight++
	h := nt.newHop()
	h.fl, h.pkt, h.wireBytes = fl, pkt, wireBytes
	return h.cross(ready)
}

// hop is one packet crossing the fabric, pooled per net: the same op
// carries the packet over every cable of its path, so a packet costs no
// allocation however many hops it takes.
type hop[T any] struct {
	sim.Step[*hop[T]]
	nt        *Net[T]
	fl        *flow
	i         int // the cable of fl.path being crossed
	pkt       T
	wireBytes int
}

func (nt *Net[T]) newHop() *hop[T] {
	if k := len(nt.hopFree); k > 0 {
		h := nt.hopFree[k-1]
		nt.hopFree = nt.hopFree[:k-1]
		return h
	}
	h := &hop[T]{nt: nt}
	h.Init(nt.e, h)
	return h
}

func (h *hop[T]) free() {
	nt := h.nt
	*h = hop[T]{Step: h.Step, nt: nt}
	nt.hopFree = append(nt.hopFree, h)
}

// cross puts the packet on fl.path[h.i] and returns the time it leaves
// that cable; ok=false means the cable dropped it (depth cap or fault
// injector) and the op is recycled. Store-and-forward: each cable is
// reserved when the packet reaches it, so cross-traffic contention
// accrues per hop.
func (h *hop[T]) cross(ready sim.Time) (sim.Time, bool) {
	nt := h.nt
	at, ok, corrupt := h.fl.path[h.i].Transmit(h.wireBytes, ready)
	if !ok {
		h.fl.inFlight--
		h.free()
		return at, false
	}
	if corrupt && nt.corrupt != nil {
		h.pkt = nt.corrupt(h.pkt)
	}
	h.At(at, nt.arrive)
	return at, true
}

// arrived ends the packet's crossing of fl.path[h.i]: the last cable
// delivers into the destination inbox, any other forwards to the next
// hop.
//
//putget:hot
func (h *hop[T]) arrived() {
	fl := h.fl
	fl.path[h.i].Arrive(h.wireBytes)
	if h.i+1 < len(fl.path) {
		h.i++
		h.cross(h.nt.e.Now())
		return
	}
	fl.inFlight--
	inbox, pkt := h.nt.inbox[fl.dst], h.pkt
	h.free()
	inbox.Send(pkt)
}

// Port is node's attachment to the fabric; it satisfies wire.Conduit[T]
// so NICs drive it exactly like a point-to-point link.
type Port[T any] struct {
	nt   *Net[T]
	node int
	name string
}

// Send injects pkt, resolving its destination from the routing key.
// The returned time is the packet's entry into the fabric (lower bound
// on delivery); ok=false means dropped (down node, no live path).
func (p *Port[T]) Send(pkt T, wireBytes int) (sim.Time, bool) {
	return p.nt.send(p.node, pkt, wireBytes, p.nt.e.Now())
}

// SendAfter injects like Send with delivery floored by the upstream
// stage's readiness (cut-through DMA overlap), as wire.Cable.Transmit.
func (p *Port[T]) SendAfter(pkt T, wireBytes int, ready sim.Time) (sim.Time, bool) {
	return p.nt.send(p.node, pkt, wireBytes, ready)
}

// Recv blocks until a packet is ejected at this node, FIFO.
func (p *Port[T]) Recv(pr *sim.Proc) T { return p.nt.inbox[p.node].Recv(pr) }

// TryRecv takes the oldest ejected packet without blocking.
func (p *Port[T]) TryRecv() (T, bool) { return p.nt.inbox[p.node].TryRecv() }

// WaitFunc runs fn at the next ejection at this node; call it after
// TryRecv found the inbox empty.
func (p *Port[T]) WaitFunc(fn func()) { p.nt.inbox[p.node].WaitFunc(fn) }

// Pending reports ejected-but-unconsumed packets.
func (p *Port[T]) Pending() int { return p.nt.inbox[p.node].Len() }

// Name labels this attachment ("<net>.n<i>") in traces and spans.
func (p *Port[T]) Name() string { return p.name }
