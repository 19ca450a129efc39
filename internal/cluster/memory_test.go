package cluster

import (
	"runtime"
	"testing"

	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
	"putget/internal/topo"
)

// allocBytes returns the bytes f allocates on the heap: the
// runtime.MemStats.TotalAlloc delta, which counts allocation work and does
// not depend on the machine or the collector's timing.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGPUBuildsStateOnFirstTouch guards gpusim.New at the Default()
// geometry (1.5 MiB L2, 512 MiB device memory). Building L2 sets and
// device-memory pages on first touch, it allocates 138 KiB; with eager L2
// sets it allocated 1418 KiB.
func TestGPUBuildsStateOnFirstTouch(t *testing.T) {
	p := Default()
	e := sim.NewEngine()
	defer e.Shutdown()
	f := pcie.NewFabric(e, memspace.NewSpace())
	got := allocBytes(func() {
		gpusim.New(e, f, gpusim.Config{
			Name: "g", SMs: p.GPUSMs,
			L2Bytes: p.GPUL2Bytes, L2Assoc: p.GPUL2Assoc, L2Sector: p.GPUL2Sector,
			DevMemBase: DevMemBase, DevMemSize: p.GPUDevMemSize,
			PCIe: pcie.EndpointConfig{EgressRate: p.GPUEgress},
		})
	})
	t.Logf("gpusim.New: %d KiB", got>>10)
	if limit := uint64(256 << 10); got > limit {
		t.Errorf("gpusim.New allocated %d KiB, ceiling %d KiB", got>>10, limit>>10)
	}
}

// TestTouchedClusterMemory guards the memory of a fully built 1024-node
// cluster: every node materialized through Node(i) and one word written
// to each GPU's device memory. With eager L2 sets and 64 KiB RAM pages it
// allocated 1586 MiB (EXTOLL fat-tree) and 1582 MiB (IB torus); built on
// first touch, 183 and 179 MiB.
func TestTouchedClusterMemory(t *testing.T) {
	for _, tc := range []struct {
		fab  Fabric
		spec topo.Spec
	}{
		{FabricExtoll, topo.Spec{Kind: topo.FatTree}},
		{FabricIB, topo.Spec{Kind: topo.Torus3D}},
	} {
		var c *Cluster
		got := allocBytes(func() {
			c = NewClusterOn(tc.fab, tc.spec, 1024, Default())
			for i := 0; i < c.N(); i++ {
				nd := c.Node(i)
				if err := nd.Space.WriteU64(nd.GPU.DevMem().Base, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
		})
		c.Shutdown()
		t.Logf("%v %v: %d MiB", tc.fab, tc.spec.Kind, got>>20)
		if limit := uint64(256 << 20); got > limit {
			t.Errorf("%v %v: 1024 touched nodes allocated %d MiB, ceiling %d MiB", tc.fab, tc.spec.Kind, got>>20, limit>>20)
		}
	}
}
