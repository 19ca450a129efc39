package topo

import (
	"math/rand"
	"strings"
	"testing"

	"putget/internal/sim"
)

type pkt struct {
	key int
	val int
}

func keyOf(p pkt) int { return p.key }

var cfg = LinkConfig{BytesPerSecond: 1e9, Latency: 100 * sim.Nanosecond}

func newTestNet(t *testing.T, spec Spec, n int) *Net[pkt] {
	t.Helper()
	return NewNet[pkt](sim.NewEngine(), spec, n, cfg, "net", keyOf)
}

// torusDist computes the expected minimal hop count on an x*y*z torus.
func torusDist(a, b, x, y, z int) int {
	wrap := func(d, m int) int {
		if d < 0 {
			d = -d
		}
		d = d % m
		if m-d < d {
			d = m - d
		}
		return d
	}
	ax, ay, az := a%x, (a/x)%y, a/(x*y)
	bx, by, bz := b%x, (b/x)%y, b/(x*y)
	return wrap(ax-bx, x) + wrap(ay-by, y) + wrap(az-bz, z)
}

func TestTorusRoutesAreMinimal(t *testing.T) {
	const x, y, z = 3, 3, 2
	n := x * y * z
	nt := newTestNet(t, Spec{Kind: Torus3D, DimX: x, DimY: y, DimZ: z}, n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			want := torusDist(src, dst, x, y, z)
			if got := nt.Hops(src, dst); got != want {
				t.Fatalf("Hops(%d,%d) = %d, want %d", src, dst, got, want)
			}
			if src == dst {
				continue
			}
			p := nt.PathNames(src, dst)
			// inject + hops + eject
			if len(p) != want+2 {
				t.Fatalf("path %d->%d has %d cables, want %d: %v", src, dst, len(p), want+2, p)
			}
		}
	}
}

func TestFatTreeRoutesAreMinimal(t *testing.T) {
	const n = 16 // radix 4: 4 leaves x 4 spines
	nt := newTestNet(t, Spec{Kind: FatTree}, n)
	if nt.Routers() != 8 {
		t.Fatalf("routers = %d, want 4 leaves + 4 spines", nt.Routers())
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			want := 2 // leaf -> spine -> leaf
			if src/4 == dst/4 {
				want = 0 // same leaf
			}
			if got := nt.Hops(src, dst); got != want {
				t.Fatalf("Hops(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
}

// Deterministic routing must return the same path on every query, and
// d-mod-k dispersion must spread distinct destinations across spines.
func TestDeterministicRouteUniqueness(t *testing.T) {
	const n = 16
	nt := newTestNet(t, Spec{Kind: FatTree, Routing: Deterministic}, n)
	spines := map[string]bool{}
	for dst := 4; dst < 16; dst++ { // all cross-leaf from node 0
		first := strings.Join(nt.PathNames(0, dst), " ")
		for i := 0; i < 3; i++ {
			if again := strings.Join(nt.PathNames(0, dst), " "); again != first {
				t.Fatalf("deterministic path 0->%d changed: %q vs %q", dst, first, again)
			}
		}
		for _, cable := range nt.PathNames(0, dst) {
			if i := strings.Index(cable, ">spine"); i >= 0 {
				spines[cable[i+1:]] = true
			}
		}
	}
	if len(spines) < 2 {
		t.Fatalf("d-mod-k dispersion used only %d spine(s) for 12 destinations", len(spines))
	}
}

func TestTorusLinkFailureReroutes(t *testing.T) {
	const x, y, z = 3, 3, 1
	n := x * y * z
	// Kill the direct 0->1 cable (+x at origin). 0->1 must reroute; the
	// detour costs 2 extra hops on a 3-wide ring (0 -> 2 -> 1 wraps).
	nt := newTestNet(t, Spec{Kind: Torus3D, DimX: x, DimY: y, DimZ: z,
		DownLinks: [][2]int{{0, 1}}}, n)
	if got := nt.Hops(0, 1); got != 2 {
		t.Fatalf("Hops(0,1) after cable kill = %d, want 2 (detour)", got)
	}
	for _, cable := range nt.PathNames(0, 1) {
		if strings.Contains(cable, "t0.0.0>t1.0.0") {
			t.Fatalf("rerouted path still uses dead cable: %v", nt.PathNames(0, 1))
		}
	}
	// The failure is directional-pair: 1->0 must also avoid it.
	for _, cable := range nt.PathNames(1, 0) {
		if strings.Contains(cable, "t1.0.0>t0.0.0") {
			t.Fatalf("reverse path uses dead cable: %v", nt.PathNames(1, 0))
		}
	}
	// Other routes keep their minimal length.
	if got := nt.Hops(0, 2); got != 1 {
		t.Fatalf("unrelated route lengthened: Hops(0,2) = %d, want 1", got)
	}
}

func TestTorusNodeFailureKillsRouterAndTraffic(t *testing.T) {
	const x, y, z = 3, 1, 1
	// A 3-ring with the middle node dead: 0<->1 via node 2's... no —
	// nodes 0,1,2 in a ring; node 1 dead kills router 1, so 0->2 must go
	// direct (they are adjacent on the wrap cable).
	nt := newTestNet(t, Spec{Kind: Torus3D, DimX: x, DimY: y, DimZ: z,
		DownNodes: []int{1}}, 3)
	if got := nt.Hops(0, 2); got != 1 {
		t.Fatalf("Hops(0,2) = %d, want 1 (wrap cable)", got)
	}
	for _, cable := range nt.PathNames(0, 2) {
		if strings.Contains(cable, "t1.0.0") {
			t.Fatalf("path transits dead router: %v", nt.PathNames(0, 2))
		}
	}
	// Sending to the dead node drops at injection with an unreachable count.
	e := sim.NewEngine()
	nt2 := NewNet[pkt](e, Spec{Kind: Torus3D, DimX: 3, DimY: 1, DimZ: 1,
		DownNodes: []int{1}}, 3, cfg, "net", keyOf)
	nt2.Bind(0, 7, 1)
	var ok bool
	e.At(0, func() { _, ok = nt2.Port(0).Send(pkt{key: 7}, 100) })
	e.Run()
	if ok {
		t.Fatal("send to dead node reported ok=true")
	}
	if nt2.Unreachable() != 1 {
		t.Fatalf("Unreachable = %d, want 1", nt2.Unreachable())
	}
}

// End-to-end delivery: routed packets arrive FIFO per flow at the
// deterministic store-and-forward time.
func TestDeliveryTimingAndOrder(t *testing.T) {
	e := sim.NewEngine()
	nt := NewNet[pkt](e, Spec{Kind: FatTree, Radix: 2}, 4, cfg, "net", keyOf)
	nt.Bind(0, 5, 3) // node 0, key 5 -> node 3 (cross-leaf: 4 cables)
	var got []pkt
	var at []sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, nt.Port(3).Recv(p))
			at = append(at, p.Now())
		}
	})
	e.At(0, func() {
		nt.Port(0).Send(pkt{key: 5, val: 1}, 1000)
		nt.Port(0).Send(pkt{key: 5, val: 2}, 1000)
	})
	e.Run()
	if len(got) != 2 || got[0].val != 1 || got[1].val != 2 {
		t.Fatalf("order/delivery broken: %+v", got)
	}
	// 4 cables, each 1us serialization + 100ns: first packet pipelines
	// store-and-forward: 4*(1us+100ns) = 4.4us.
	if want := sim.Time(4 * (sim.Microsecond + 100*sim.Nanosecond)); at[0] != want {
		t.Fatalf("first delivery at %v, want %v", at[0], want)
	}
	// Second packet queues one serialization behind on every hop but
	// pipelines: arrives one serialization window later.
	if want := at[0] + sim.Time(sim.Microsecond); at[1] != want {
		t.Fatalf("second delivery at %v, want %v", at[1], want)
	}
}

// Two flows forced through one shared cable contend: the second flow's
// packet serializes behind the first on the shared hop, visible in both
// the arrival time and the cable's depth high-water mark.
func TestSharedCableContention(t *testing.T) {
	e := sim.NewEngine()
	// Radix-2 fat-tree, 4 nodes, single spine: all cross-leaf traffic
	// shares the leaf0->spine0 uplink... with 2 spines d-mod-k may
	// split; force sharing by picking destinations with equal spine pick.
	nt := NewNet[pkt](e, Spec{Kind: FatTree, Radix: 2}, 4, cfg, "net", keyOf)
	nt.Bind(0, 1, 2)
	nt.Bind(1, 1, 2) // same destination: same spine under d-mod-k
	var at []sim.Time
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nt.Port(2).Recv(p)
			at = append(at, p.Now())
		}
	})
	e.At(0, func() {
		nt.Port(0).Send(pkt{key: 1, val: 1}, 1000)
		nt.Port(1).Send(pkt{key: 1, val: 2}, 1000)
	})
	e.Run()
	if len(at) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(at))
	}
	// Both injected at t=0 on separate injection cables, meet at the
	// shared spine->leaf1 cable (and the spine itself): the second
	// arrival is one serialization window after the first.
	if at[1]-at[0] != sim.Time(sim.Microsecond) {
		t.Fatalf("contention spacing = %v, want 1us (arrivals %v)", at[1]-at[0], at)
	}
	if nt.MaxDepth() < 2 {
		t.Fatalf("MaxDepth = %d, want >=2 on the shared cable", nt.MaxDepth())
	}
}

// Adaptive routing must steer a new flow away from a congested spine,
// and never re-pick a path while the flow has packets in flight.
func TestAdaptiveAvoidsCongestion(t *testing.T) {
	e := sim.NewEngine()
	nt := NewNet[pkt](e, Spec{Kind: FatTree, Radix: 2, Routing: Adaptive}, 4, cfg, "net", keyOf)
	nt.Bind(0, 1, 2)
	var before, after []string
	e.At(0, func() {
		// Uncongested tie: adaptive falls back to the deterministic pick.
		before = nt.PathNames(0, 2)
		// Load a 100us burst onto that path; it reserves the spine uplink
		// when it reaches the leaf (~100us), so by 150us the congestion
		// is visible and a fresh path decision must steer away.
		nt.Port(0).Send(pkt{key: 1}, 100000)
	})
	e.At(sim.Time(150*sim.Microsecond), func() {
		after = nt.PathNames(0, 2)
	})
	e.Spawn("rx", func(p *sim.Proc) { nt.Port(2).Recv(p) })
	e.Run()
	if len(before) == 0 || len(after) == 0 {
		t.Fatal("paths not captured")
	}
	if strings.Join(before, " ") == strings.Join(after, " ") {
		t.Fatalf("adaptive kept congested path:\n  %v\n  %v", before, after)
	}
}

func TestDerive3D(t *testing.T) {
	for _, tc := range []struct{ n, x, y, z int }{
		{2, 1, 1, 2}, {8, 2, 2, 2}, {16, 2, 3, 3}, {27, 3, 3, 3}, {64, 4, 4, 4}, {256, 6, 7, 7},
	} {
		x, y, z := derive3D(tc.n)
		if x*y*z < tc.n {
			t.Fatalf("derive3D(%d) = %dx%dx%d too small", tc.n, x, y, z)
		}
		if x != tc.x || y != tc.y || z != tc.z {
			t.Fatalf("derive3D(%d) = %dx%dx%d, want %dx%dx%d", tc.n, x, y, z, tc.x, tc.y, tc.z)
		}
	}
}

// The deterministic route memo must serve repeated path resolutions from
// the cache (keyed by attachment router + destination) and must never
// change the path it returns.
func TestDeterministicRouteMemo(t *testing.T) {
	const n = 16
	nt := newTestNet(t, Spec{Kind: FatTree, Routing: Deterministic}, n)
	if entries, hits := nt.RouteMemoStats(); entries != 0 || hits != 0 {
		t.Fatalf("fresh net memo = %d entries, %d hits; want 0, 0", entries, hits)
	}
	first := map[int]string{}
	for dst := 1; dst < n; dst++ {
		first[dst] = strings.Join(nt.PathNames(0, dst), " ")
	}
	entries, hits := nt.RouteMemoStats()
	if entries == 0 {
		t.Fatal("memo stayed empty after resolving paths")
	}
	// Same-leaf destinations 1..3 share node 0's attachment router but
	// have distinct destination segments, so entries grow per (router,
	// dst) pair; cross-leaf queries from other nodes reuse nothing yet.
	for dst := 1; dst < n; dst++ {
		if again := strings.Join(nt.PathNames(0, dst), " "); again != first[dst] {
			t.Fatalf("memoized path 0->%d changed: %q vs %q", dst, first[dst], again)
		}
	}
	entries2, hits2 := nt.RouteMemoStats()
	if entries2 != entries {
		t.Fatalf("re-querying grew the memo: %d -> %d entries", entries, entries2)
	}
	if hits2 <= hits {
		t.Fatalf("re-querying did not hit the memo: %d -> %d hits", hits, hits2)
	}
	// A different source on the same leaf shares the attachment router,
	// so its cross-leaf queries are pure memo hits.
	before, beforeHits := nt.RouteMemoStats()
	for dst := 4; dst < n; dst++ {
		nt.PathNames(1, dst)
	}
	after, afterHits := nt.RouteMemoStats()
	if after != before {
		t.Fatalf("same-leaf source grew the memo: %d -> %d entries", before, after)
	}
	if afterHits != beforeHits+12 {
		t.Fatalf("same-leaf source hits = %d, want %d", afterHits, beforeHits+12)
	}
}

// fifoPkt carries what the FIFO property checks: its flow, its
// injection sequence number within that flow, and its cut-through floor.
type fifoPkt struct {
	src, dst, seq int
	ready         sim.Time
}

// Every net, whatever its shape and routing, must deliver each
// (src, dst) flow in injection order, and no packet may land before its
// upstream stage was ready plus one cable's latency — including packets
// with random sizes whose DMA finishes at random future times, the case
// in which a later, smaller packet would otherwise overtake.
func TestFlowFIFOProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		n    int
	}{
		{"direct", Spec{Kind: Direct}, 2},
		{"fattree", Spec{Kind: FatTree, Radix: 2}, 6},
		{"torus", Spec{Kind: Torus3D}, 8},
		{"torus-adaptive", Spec{Kind: Torus3D, Routing: Adaptive}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				checkFlowFIFO(t, tc.spec, tc.n, seed)
			}
		})
	}
}

func checkFlowFIFO(t *testing.T, spec Spec, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	defer e.Shutdown()
	nt := NewNet[fifoPkt](e, spec, n, cfg, "net", func(p fifoPkt) int { return p.dst })
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				nt.Bind(src, dst, dst)
			}
		}
	}
	type flowID struct{ src, dst int }
	sent := map[flowID]int{}
	const packets = 200
	for i := 0; i < packets; i++ {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		size := 1 + rng.Intn(4096)
		at := sim.Time(rng.Intn(40_000_000))      // inject within the first 40us
		lead := sim.Duration(rng.Intn(8_000_000)) // DMA still feeding for up to 8us
		e.At(at, func() {
			f := flowID{src, dst}
			p := fifoPkt{src: src, dst: dst, seq: sent[f], ready: e.Now().Add(lead)}
			sent[f]++
			if _, ok := nt.Port(src).SendAfter(p, size, p.ready); !ok {
				t.Errorf("seed %d: packet %+v dropped on a healthy net", seed, p)
			}
		})
	}
	next := map[flowID]int{}
	delivered := 0
	for node := 0; node < n; node++ {
		node := node
		e.Spawn("rx", func(pr *sim.Proc) {
			for {
				p := nt.Port(node).Recv(pr)
				f := flowID{p.src, p.dst}
				if p.dst != node {
					t.Errorf("seed %d: packet for n%d delivered at n%d", seed, p.dst, node)
				}
				if p.seq != next[f] {
					t.Errorf("seed %d: flow %d->%d delivered seq %d, want %d (injection order)", seed, p.src, p.dst, p.seq, next[f])
				}
				if floor := p.ready.Add(cfg.Latency); pr.Now() < floor {
					t.Errorf("seed %d: flow %d->%d seq %d delivered at %v, before ready+latency %v", seed, p.src, p.dst, p.seq, pr.Now(), floor)
				}
				next[f] = p.seq + 1
				delivered++
			}
		})
	}
	e.Run()
	if delivered != packets {
		t.Fatalf("seed %d: delivered %d of %d packets", seed, delivered, packets)
	}
}

// A Direct net is two nodes and one cable per direction: no routers, no
// bindings, and each direction's path is that one cable.
func TestDirectNet(t *testing.T) {
	nt := newTestNet(t, Spec{Kind: Direct}, 2)
	if nt.Routers() != 0 || nt.Hops(0, 1) != 0 {
		t.Fatalf("routers = %d, hops = %d; want 0, 0", nt.Routers(), nt.Hops(0, 1))
	}
	for src, want := range []string{"net.n0>n1", "net.n1>n0"} {
		if got := nt.PathNames(src, 1-src); len(got) != 1 || got[0] != want {
			t.Fatalf("path %d->%d = %v, want [%s]", src, 1-src, got, want)
		}
	}
	nt.Inject(0).SetName("a.wire")
	if got := nt.PathNames(0, 1); got[0] != "a.wire" {
		t.Fatalf("renamed injection cable reports %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-node Direct net did not panic")
		}
	}()
	newTestNet(t, Spec{Kind: Direct}, 3)
}

// TestSendDoesNotAllocate pins a packet's crossing of a leaf-spine-leaf
// fat-tree route (four cables) at zero allocations, once warm: one
// pooled hop op carries it over every cable into the inbox.
func TestSendDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	defer e.Shutdown()
	nt := NewNet[pkt](e, Spec{Kind: FatTree}, 16, cfg, "net", keyOf)
	nt.Bind(0, 0, 15)
	if hops := len(nt.PathNames(0, 15)); hops != 4 {
		t.Fatalf("route 0->15 crosses %d cables, want 4", hops)
	}
	src, dst := nt.Port(0), nt.Port(15)
	n := 0
	step := func() {
		n++
		src.Send(pkt{key: 0, val: n}, 64)
		e.Run()
		if p, ok := dst.TryRecv(); !ok || p.val != n {
			t.Fatalf("packet %d not delivered (got %+v, %v)", n, p, ok)
		}
	}
	step()
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Errorf("%v allocs/op, want 0", got)
	}
}
