package cluster

import (
	"testing"

	"putget/internal/topo"
)

func scaledParams() Params {
	p := Default()
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	return p
}

func TestClusterBuildsNodesLazily(t *testing.T) {
	c := NewClusterOn(FabricExtoll, topo.Spec{Kind: topo.FatTree}, 64, scaledParams())
	defer c.Shutdown()
	if got := c.Built(); got != 0 {
		t.Fatalf("fresh cluster built %d nodes, want 0", got)
	}
	if c.N() != 64 {
		t.Fatalf("N() = %d, want 64", c.N())
	}
	a := c.Node(3)
	if a == nil || a.Extoll == nil || a.GPU == nil {
		t.Fatal("node 3 is missing its anatomy")
	}
	if got := c.Built(); got != 1 {
		t.Fatalf("built %d nodes after one touch, want 1", got)
	}
	if c.Node(3) != a {
		t.Fatal("second touch returned a different node")
	}
	if got := c.Built(); got != 1 {
		t.Fatalf("repeated touch built %d nodes, want still 1", got)
	}
	if got := c.IndexOf(a); got != 3 {
		t.Fatalf("IndexOf = %d, want 3", got)
	}
	c.Node(60)
	if got := c.Built(); got != 2 {
		t.Fatalf("built %d nodes, want 2", got)
	}
}

func TestClusterLazyIBNodesAttach(t *testing.T) {
	c := NewClusterOn(FabricIB, topo.Spec{Kind: topo.Torus3D}, 8, scaledParams())
	defer c.Shutdown()
	nd := c.Node(5)
	if nd.IB == nil {
		t.Fatal("IB node missing its HCA")
	}
	if nd.Extoll != nil {
		t.Fatal("IB node grew an EXTOLL NIC")
	}
}

func TestClusterNodeRangePanics(t *testing.T) {
	c := NewClusterOn(FabricExtoll, topo.Spec{Kind: topo.FatTree}, 4, scaledParams())
	defer c.Shutdown()
	for _, i := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Node(%d) did not panic", i)
				}
			}()
			c.Node(i)
		}()
	}
}

// Lazy nodes must see the same EXTOLL notification-ring base no matter
// when they are built: it is fixed at cluster construction.
func TestClusterExtNotifBaseStable(t *testing.T) {
	p := scaledParams()
	p.ExtNotifInDevMem = true
	c := NewClusterOn(FabricExtoll, topo.Spec{Kind: topo.FatTree}, 4, p)
	defer c.Shutdown()
	want := DevMemBase + 64<<20 - 32<<20
	if c.extNotifBase != want {
		t.Fatalf("extNotifBase = %#x, want %#x", uint64(c.extNotifBase), uint64(want))
	}
}

// The pair testbed is a Direct cluster: nodes a and b, each NIC's cable
// named after it, and the pair-only knobs accepted there and nowhere
// else.
func TestPairIsDirectCluster(t *testing.T) {
	for _, tc := range []struct {
		tb    *Testbed
		cable string
	}{
		{NewExtollPair(scaledParams()), "a.rma.wire"},
		{NewIBPair(scaledParams()), "a.hca.wire"},
	} {
		tb := tc.tb
		defer tb.Shutdown()
		if tb.Spec.Kind != topo.Direct || tb.N() != 2 || tb.Built() != 2 {
			t.Fatalf("pair is %v with %d of %d nodes built", tb.Spec.Kind, tb.Built(), tb.N())
		}
		if tb.A != tb.Node(0) || tb.B != tb.Node(1) || tb.A.Name != "a" || tb.B.Name != "b" {
			t.Fatalf("pair nodes %q, %q are not nodes 0 and 1 named a and b", tb.A.Name, tb.B.Name)
		}
		var path []string
		if tb.ExtNet != nil {
			path = tb.ExtNet.PathNames(0, 1)
		} else {
			path = tb.IBNet.PathNames(0, 1)
		}
		if len(path) != 1 || path[0] != tc.cable {
			t.Fatalf("a->b path %v, want the one cable %s", path, tc.cable)
		}
	}

	p := scaledParams()
	p.FaultInject = true
	p.WireDepthCap = 8
	tb := NewIBPair(p)
	defer tb.Shutdown()
	if tb.FaultsAB == nil || tb.FaultsBA == nil || tb.FaultsAB == tb.FaultsBA {
		t.Fatal("a faulty pair needs one injector per cable direction")
	}
	for _, knob := range []func(*Params){
		func(p *Params) { p.FaultInject = true },
		func(p *Params) { p.WireDepthCap = 8 },
	} {
		p := scaledParams()
		knob(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a pair-only knob was accepted on a fat-tree")
				}
			}()
			NewClusterOn(FabricExtoll, topo.Spec{Kind: topo.FatTree}, 4, p)
		}()
	}
}

// TestLazyBuildAllocs guards lazy construction on allocs/op, which does
// not depend on the machine: a fat-tree NewClusterOn builds only the
// switch graph, so building every node eagerly (hundreds of times the
// allocations) fails it. The ceilings are 1.15x the measured counts.
func TestLazyBuildAllocs(t *testing.T) {
	p := scaledParams()
	p.ExtPorts = 72
	p.ExtNotifEntries = 128
	for _, tc := range []struct {
		n    int
		base float64
	}{{256, 5403}, {1024, 23328}} {
		got := testing.AllocsPerRun(2, func() {
			NewClusterOn(FabricExtoll, topo.Spec{Kind: topo.FatTree}, tc.n, p).Shutdown()
		})
		if limit := 1.15 * tc.base; got > limit {
			t.Errorf("%d-node lazy build: %.0f allocs/op, ceiling %.0f", tc.n, got, limit)
		}
	}
}
