package transport

import (
	"testing"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/sim"
)

// TestPutAllocs pins a 64 B put with local completion at zero
// allocations per operation, once warm, on each fabric and from each
// side: a CPU's HostPut plus HostWaitComplete and a warp's DevPut plus
// DevWaitComplete. Every control-path transaction below them (WR and WQE
// stores, doorbells, notifications, CQEs, their polls) carries its bytes
// in a stack array that the PCIe op copies at post time.
func TestPutAllocs(t *testing.T) {
	forBoth(t, func(t *testing.T, k Kind) {
		for _, side := range []string{"host", "dev"} {
			r := newRig(t, k, cluster.Default(), ConnHint{})
			var ops int
			if side == "host" {
				r.tb.E.Spawn("put", func(p *sim.Proc) {
					for {
						r.a.HostPut(p, r.aR, 0, r.bR, 0, 64, FlagLocalComp)
						if c := r.a.HostWaitComplete(p, CompLocal); c.Err {
							t.Error("host put failed")
							return
						}
						ops++
					}
				})
			} else {
				r.tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
					for {
						r.a.DevPut(w, r.aR, 0, r.bR, 0, 64, FlagLocalComp)
						if c := r.a.DevWaitComplete(w, CompLocal); c.Err {
							t.Error("dev put failed")
							return
						}
						ops++
					}
				})
			}
			// step runs the engine until one more put has completed.
			step := func() {
				for want := ops + 1; ops < want; {
					r.tb.E.RunUntil(r.tb.E.Now() + sim.Time(100*sim.Nanosecond))
				}
			}
			for i := 0; i < 10; i++ {
				step()
			}
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Errorf("%s put: %v allocs/op, want 0", side, got)
			}
			r.tb.Shutdown()
		}
	})
}
