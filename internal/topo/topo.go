// Package topo models the interconnect between N nodes: a direct
// two-node cable, a two-level fat-tree or a 3D torus (the APEnet+
// lineage). Every directed cable is a wire.Cable — the simulator's one
// link model, with its serialization, cut-through, FIFO-delivery, depth
// and fault rules and its xmit spans and depth/inflight/busy metrics —
// so a topo.Net only routes. Packets cross a switched fabric
// store-and-forward, reserving each hop when they arrive at it, so
// contention on shared links is visible hop by hop.
//
// Routing is minimal-path with two knobs: Deterministic picks a fixed
// shortest path per (source, destination) pair by d-mod-k dispersion
// (spreads flows across equal-cost candidates by destination index, the
// classic static load-spreading rule), and Adaptive re-picks the
// least-busy minimal path — but only when the flow has no packets in
// flight, so per-flow FIFO ordering survives (RC transports and
// completion semantics upstream depend on it).
//
// Failures are static per Spec: down cables and down nodes are excluded
// from route computation (fabric-manager-style rerouting around the
// fault); destinations with no surviving path drop at injection with an
// unreachable count.
package topo

import (
	"fmt"

	"putget/internal/sim"
	"putget/internal/wire"
)

// Kind selects the switch graph shape.
type Kind int

const (
	// FatTree is a two-level folded Clos: leaves with Radix down-ports
	// each cabled to every spine; minimal inter-leaf paths are
	// leaf-spine-leaf with one equal-cost candidate per spine.
	FatTree Kind = iota
	// Torus3D places one router per node on a 3D grid with wraparound
	// cables in +/-x, +/-y, +/-z; minimal paths progress per dimension.
	Torus3D
	// Direct joins exactly two nodes with one cable per direction and no
	// switch: the paper's two-node testbed. The peer is the only
	// destination, so a Direct net needs no routing-key bindings.
	Direct
)

func (k Kind) String() string {
	switch k {
	case FatTree:
		return "fattree"
	case Torus3D:
		return "torus"
	case Direct:
		return "direct"
	}
	return fmt.Sprintf("topo.Kind(%d)", int(k))
}

// Routing selects how a packet picks among equal-cost minimal paths.
type Routing int

const (
	// Deterministic fixes one minimal path per (src, dst) flow by
	// d-mod-k dispersion: candidate index = dst mod candidates.
	Deterministic Routing = iota
	// Adaptive re-picks a flow's minimal path greedily by least busy
	// next hop, but only between a flow's packet bursts (never while the
	// flow has packets in flight), preserving per-flow FIFO order.
	Adaptive
)

func (r Routing) String() string {
	if r == Adaptive {
		return "adaptive"
	}
	return "deterministic"
}

// Spec describes a topology instance. The zero value of the sizing
// fields derives a balanced shape from the node count.
type Spec struct {
	Kind    Kind
	Routing Routing

	// Radix is the fat-tree leaf down-port count (nodes per leaf); the
	// spine count equals it (full bisection). 0 derives ceil(sqrt(n)).
	Radix int

	// DimX/DimY/DimZ size the torus grid. All zero derives a near-cubic
	// grid with DimX*DimY*DimZ >= n.
	DimX, DimY, DimZ int

	// DownLinks lists failed cables (both directions die). For Torus3D
	// each entry is a pair of adjacent node indices; for FatTree each
	// entry is {leaf index, spine index}.
	DownLinks [][2]int
	// DownNodes lists failed nodes. On the torus the node's router dies
	// with it (the router sits on the NIC), cutting through-traffic; on
	// the fat-tree only the node's leaf attachment dies.
	DownNodes []int
}

// derive3D grows a near-cubic grid until it covers n nodes.
func derive3D(n int) (x, y, z int) {
	x, y, z = 1, 1, 1
	for x*y*z < n {
		switch {
		case z <= y && z <= x:
			z++
		case y <= x:
			y++
		default:
			x++
		}
	}
	return x, y, z
}

// isqrtCeil returns ceil(sqrt(n)) without floating point.
func isqrtCeil(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// channel is one directed cable plus its place in the switch graph. The
// cable is embedded by value so a graph of thousands of cables costs one
// allocation per cable.
type channel struct {
	wire.Cable
	from, to int // router ids (-1 on the node side of inject/eject)
	down     bool
}

// graph is the routing-relevant switch structure, shared by the generic
// Net[T] runtime.
type graph struct {
	spec    Spec
	n       int
	routers int
	// nodeRouter maps node index to its attachment router.
	nodeRouter []int
	routerName []string
	downRouter []bool
	downNode   []bool
	// adj[r] lists r's outgoing router-to-router channels in canonical
	// order (torus: +x,-x,+y,-y,+z,-z; fat-tree: peer id ascending), the
	// order d-mod-k dispersion indexes into.
	adj [][]*channel
	// inject[i]/eject[i] are node i's attachment cables. A Direct net
	// has no eject cables: inject[i] is the whole path to the peer.
	inject, eject []*channel

	// dist[d][r] is the live-path hop count from router r to router d,
	// computed lazily per destination (failures are static, so tables
	// never invalidate). -1 marks unreachable.
	dist [][]int

	// detSeg memoizes deterministic router-to-router path segments keyed
	// by {source router, destination node}: the d-mod-k dispersion pick
	// depends only on the current router and the destination, never on
	// the source node, so every flow whose source shares an attachment
	// router reuses one resolution. With lazy connection setup at 1024
	// ranks this turns route resolution from per-flow recomputation into
	// a shared lookup (on a fat-tree, radix-many sources per leaf hit the
	// same entry). Lookup-only map: never iterated.
	detSeg map[[2]int][]*channel
	// detSegHits counts resolutions served from the memo.
	detSegHits uint64
}

func buildGraph(e *sim.Engine, spec Spec, n int, name string, bw float64, lat sim.Duration) *graph {
	if n < 2 {
		panic("topo: need at least 2 nodes")
	}
	g := &graph{spec: spec, n: n}
	newCh := func(from, to int, cname string) *channel {
		return &channel{Cable: wire.NewCable(e, name+"."+cname, bw, lat), from: from, to: to}
	}
	switch spec.Kind {
	case Direct:
		if n != 2 {
			panic(fmt.Sprintf("topo: a Direct net joins exactly 2 nodes, not %d", n))
		}
		if len(spec.DownLinks) > 0 {
			panic("topo: a Direct net has no switch links to fail")
		}
	case FatTree:
		radix := spec.Radix
		if radix <= 0 {
			radix = isqrtCeil(n)
		}
		leaves := (n + radix - 1) / radix
		spines := radix
		g.routers = leaves + spines
		g.routerName = make([]string, g.routers)
		for l := 0; l < leaves; l++ {
			g.routerName[l] = fmt.Sprintf("leaf%d", l)
		}
		for s := 0; s < spines; s++ {
			g.routerName[leaves+s] = fmt.Sprintf("spine%d", s)
		}
		g.adj = make([][]*channel, g.routers)
		for l := 0; l < leaves; l++ {
			for s := 0; s < spines; s++ {
				up := newCh(l, leaves+s, fmt.Sprintf("leaf%d>spine%d", l, s))
				down := newCh(leaves+s, l, fmt.Sprintf("spine%d>leaf%d", s, l))
				g.adj[l] = append(g.adj[l], up)
				g.adj[leaves+s] = append(g.adj[leaves+s], down)
			}
		}
		g.nodeRouter = make([]int, n)
		for i := 0; i < n; i++ {
			g.nodeRouter[i] = i / radix
		}
		for _, dl := range spec.DownLinks {
			l, s := dl[0], dl[1]
			if l < 0 || l >= leaves || s < 0 || s >= spines {
				panic(fmt.Sprintf("topo: DownLinks {%d,%d} is not a leaf/spine pair (%d leaves, %d spines)", l, s, leaves, spines))
			}
			markDown(g.adj[l], leaves+s)
			markDown(g.adj[leaves+s], l)
		}
	case Torus3D:
		x, y, z := spec.DimX, spec.DimY, spec.DimZ
		if x <= 0 && y <= 0 && z <= 0 {
			x, y, z = derive3D(n)
		}
		if x < 1 || y < 1 || z < 1 || x*y*z < n {
			panic(fmt.Sprintf("topo: torus %dx%dx%d cannot hold %d nodes", x, y, z, n))
		}
		g.routers = x * y * z
		g.routerName = make([]string, g.routers)
		g.adj = make([][]*channel, g.routers)
		coord := func(r int) (cx, cy, cz int) { return r % x, (r / x) % y, r / (x * y) }
		id := func(cx, cy, cz int) int { return cx + x*(cy+y*cz) }
		for r := 0; r < g.routers; r++ {
			cx, cy, cz := coord(r)
			g.routerName[r] = fmt.Sprintf("t%d.%d.%d", cx, cy, cz)
		}
		mod := func(v, m int) int { return ((v % m) + m) % m }
		for r := 0; r < g.routers; r++ {
			cx, cy, cz := coord(r)
			// Canonical neighbor order +x,-x,+y,-y,+z,-z; a dimension of
			// size 2 has one cable (not two parallel ones), size 1 none.
			var nbs []int
			add := func(to int) {
				if to == r {
					return
				}
				for _, seen := range nbs {
					if seen == to {
						return
					}
				}
				nbs = append(nbs, to)
			}
			add(id(mod(cx+1, x), cy, cz))
			add(id(mod(cx-1, x), cy, cz))
			add(id(cx, mod(cy+1, y), cz))
			add(id(cx, mod(cy-1, y), cz))
			add(id(cx, cy, mod(cz+1, z)))
			add(id(cx, cy, mod(cz-1, z)))
			for _, to := range nbs {
				g.adj[r] = append(g.adj[r], newCh(r, to, g.routerName[r]+">"+g.routerName[to]))
			}
		}
		g.nodeRouter = make([]int, n)
		for i := 0; i < n; i++ {
			g.nodeRouter[i] = i
		}
		for _, dl := range spec.DownLinks {
			a, b := dl[0], dl[1]
			if a < 0 || a >= g.routers || b < 0 || b >= g.routers || !markDown(g.adj[a], b) {
				panic(fmt.Sprintf("topo: DownLinks {%d,%d} is not a torus cable", a, b))
			}
			markDown(g.adj[b], a)
		}
	default:
		panic(fmt.Sprintf("topo: unknown Kind %d", int(spec.Kind)))
	}

	g.downRouter = make([]bool, g.routers)
	g.downNode = make([]bool, n)
	for _, d := range spec.DownNodes {
		if d < 0 || d >= n {
			panic(fmt.Sprintf("topo: DownNodes %d out of range (n=%d)", d, n))
		}
		g.downNode[d] = true
		if spec.Kind == Torus3D {
			// The torus router rides on the NIC: a dead node also kills
			// its router, so through-traffic must route around it.
			g.downRouter[g.nodeRouter[d]] = true
		}
	}

	g.inject = make([]*channel, n)
	if spec.Kind == Direct {
		g.inject[0] = newCh(-1, -1, "n0>n1")
		g.inject[1] = newCh(-1, -1, "n1>n0")
	} else {
		g.eject = make([]*channel, n)
		for i := 0; i < n; i++ {
			r := g.nodeRouter[i]
			g.inject[i] = newCh(-1, r, fmt.Sprintf("n%d>%s", i, g.routerName[r]))
			g.eject[i] = newCh(r, -1, fmt.Sprintf("%s>n%d", g.routerName[r], i))
		}
	}
	g.dist = make([][]int, g.routers)
	g.detSeg = make(map[[2]int][]*channel)
	return g
}

// markDown marks the channel from this adjacency list to router `to` as
// down; reports whether such a channel existed.
func markDown(chs []*channel, to int) bool {
	found := false
	for _, ch := range chs {
		if ch.to == to {
			ch.down = true
			found = true
		}
	}
	return found
}

// distTo returns (lazily computing) the hop-count table toward dst
// router over live channels and routers: distTo(d)[r] is the number of
// router-to-router hops from r to d, -1 if unreachable.
func (g *graph) distTo(d int) []int {
	if t := g.dist[d]; t != nil {
		return t
	}
	t := make([]int, g.routers)
	for i := range t {
		t[i] = -1
	}
	// BFS from d over reversed edges. Channels are symmetric pairs in
	// both topologies, so scanning each frontier router's outgoing live
	// channels and relaxing their peers walks the reverse graph exactly.
	var frontier []int
	if !g.downRouter[d] {
		t[d] = 0
		frontier = append(frontier, d)
	}
	for len(frontier) > 0 {
		var next []int
		for _, r := range frontier {
			for _, ch := range g.adj[r] {
				if ch.down || g.downRouter[ch.to] || t[ch.to] >= 0 {
					continue
				}
				t[ch.to] = t[r] + 1
				next = append(next, ch.to)
			}
		}
		frontier = next
	}
	g.dist[d] = t
	return t
}

// candidates returns r's outgoing channels that lie on a minimal live
// path toward dst router, in canonical order.
func (g *graph) candidates(r, dst int, buf []*channel) []*channel {
	t := g.distTo(dst)
	if t[r] < 0 {
		return buf[:0]
	}
	buf = buf[:0]
	for _, ch := range g.adj[r] {
		if ch.down || g.downRouter[ch.to] || t[ch.to] < 0 {
			continue
		}
		if t[ch.to] == t[r]-1 {
			buf = append(buf, ch)
		}
	}
	return buf
}

// pathRouters computes the flow path from src to dst node as the channel
// sequence inject, router hops, eject — nil if no live path exists.
// adaptive selects among equal-cost candidates by least-busy next hop
// (ties falling back to the deterministic pick); deterministic uses
// d-mod-k dispersion and memoizes the router segment (see detSeg).
func (g *graph) path(src, dst int, adaptive bool) []*channel {
	if g.downNode[src] || g.downNode[dst] {
		return nil
	}
	if g.spec.Kind == Direct {
		return g.inject[src : src+1]
	}
	sr, dr := g.nodeRouter[src], g.nodeRouter[dst]
	t := g.distTo(dr)
	if t[sr] < 0 {
		return nil
	}
	if !adaptive {
		seg, ok := g.detSeg[[2]int{sr, dst}]
		if ok {
			g.detSegHits++
		} else {
			seg = g.routerSegment(sr, dr, dst, t)
			g.detSeg[[2]int{sr, dst}] = seg
		}
		if seg == nil && sr != dr {
			return nil
		}
		path := make([]*channel, 0, len(seg)+2)
		path = append(path, g.inject[src])
		path = append(path, seg...)
		return append(path, g.eject[dst])
	}
	path := make([]*channel, 0, t[sr]+2)
	path = append(path, g.inject[src])
	var buf [8]*channel
	r := sr
	for r != dr {
		cands := g.candidates(r, dr, buf[:0])
		if len(cands) == 0 {
			return nil // cannot happen: t[r] >= 0 implies a candidate
		}
		pick := cands[dst%len(cands)]
		for _, ch := range cands {
			if ch.FreeAt() < pick.FreeAt() {
				pick = ch
			}
		}
		path = append(path, pick)
		r = pick.to
	}
	return append(path, g.eject[dst])
}

// routerSegment walks the deterministic (d-mod-k) router-to-router hops
// from router sr toward destination node dst attached at router dr.
func (g *graph) routerSegment(sr, dr, dst int, t []int) []*channel {
	if sr == dr {
		return nil
	}
	seg := make([]*channel, 0, t[sr])
	var buf [8]*channel
	r := sr
	for r != dr {
		cands := g.candidates(r, dr, buf[:0])
		if len(cands) == 0 {
			return nil // cannot happen: t[r] >= 0 implies a candidate
		}
		pick := cands[dst%len(cands)]
		seg = append(seg, pick)
		r = pick.to
	}
	return seg
}
