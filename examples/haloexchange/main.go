// Haloexchange runs the HPC workload the paper's introduction motivates: a
// 2D stencil computation distributed over the two GPUs, exchanging halo
// rows every iteration. It contrasts GPU-controlled communication (the
// kernel itself puts its boundary row and polls for the neighbour's) with
// the host-assisted scheme (the kernel signals the CPU and waits) — the
// choice the paper's analysis informs.
//
//	go run ./examples/haloexchange
//	go run ./examples/haloexchange -n 2048 -iters 50
package main

import (
	"flag"
	"fmt"
	"log"

	"putget"
	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/sim"
)

func main() {
	n := flag.Int("n", 1024, "grid edge length (cells)")
	iters := flag.Int("iters", 20, "stencil iterations")
	flag.Parse()

	fmt.Printf("2D stencil, %dx%d cells per GPU, %d iterations, %dB halos\n\n",
		*n, *n, *iters, *n*8)

	gpuTime := run(*n, *iters, false)
	assistTime := run(*n, *iters, true)

	fmt.Printf("%-28s %12v  (%.2f us/iter)\n", "GPU-controlled exchange:", gpuTime,
		gpuTime.Microseconds()/float64(*iters))
	fmt.Printf("%-28s %12v  (%.2f us/iter)\n", "host-assisted exchange:", assistTime,
		assistTime.Microseconds()/float64(*iters))
	if gpuTime < assistTime {
		fmt.Println("\nGPU-controlled wins: no CPU round trip per halo, and the halo")
		fmt.Println("arrival is detected by polling device memory (pollOnGPU).")
	} else {
		fmt.Println("\nhost-assisted wins here; at this halo size the CPU's cheaper")
		fmt.Println("work-request path beats the GPU's descriptor overhead.")
	}
}

// rank is one side of the distributed stencil.
type rank struct {
	node   *cluster.Node
	rma    *core.RMA
	out    memspace.Addr // outgoing boundary row (local GPU memory)
	in     memspace.Addr // incoming halo row (local GPU memory)
	outN   extoll.NLA    // our boundary row, registered locally
	peerIn extoll.NLA    // the neighbour's halo row, registered remotely
	assist core.AssistFlags
}

// run executes the distributed stencil and returns the virtual time GPU A
// spent from first to last iteration.
func run(n, iters int, hostAssisted bool) sim.Duration {
	tb := putget.NewExtollTestbed(putget.DefaultParams()).Cluster()
	haloBytes := uint64(n * 8) // one row of float64 cells
	stamp := memspace.Addr(haloBytes - 8)

	mk := func(node *cluster.Node) *rank {
		r := &rank{node: node, rma: putget.NewRMA(node)}
		r.out = node.AllocDev(haloBytes)
		r.in = node.AllocDev(haloBytes)
		return r
	}
	a, b := mk(tb.A), mk(tb.B)
	a.outN = a.rma.Register(a.out, haloBytes)
	b.outN = b.rma.Register(b.out, haloBytes)
	a.peerIn = b.rma.Register(b.in, haloBytes) // where A's halo lands on B
	b.peerIn = a.rma.Register(a.in, haloBytes) // where B's halo lands on A
	a.rma.OpenPort(0)
	b.rma.OpenPort(0)
	extoll.ConnectPorts(tb.A.Extoll, 0, tb.B.Extoll, 0)

	// ~4 instructions per cell per iteration, spread over 13 SMs of
	// 32-wide warps.
	computeInstr := n * n * 4 / (13 * 32)

	if hostAssisted {
		for _, r := range []*rank{a, b} {
			r := r
			r.assist = core.NewAssistFlags(r.node)
			tb.E.Spawn(r.node.Name+".cpu.halo", func(p *sim.Proc) {
				for it := 1; it <= iters; it++ {
					core.HostAwaitAssistReq(p, r.node.CPU, r.assist, uint64(it))
					r.rma.HostPut(p, 0, r.outN, r.peerIn, int(haloBytes), extoll.FlagReqNotif)
					if _, ok := r.rma.HostWaitNotifTimeout(p, 0, extoll.ClassRequester, 10*sim.Millisecond); !ok {
						panic("haloexchange: host requester notification timed out")
					}
					core.HostAckAssist(p, r.node.CPU, r.assist, uint64(it))
				}
			})
		}
	}

	var startA, endA sim.Time
	launch := func(r *rank, isA bool) *sim.Completion {
		return r.node.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
			if isA {
				startA = w.Now()
			}
			for it := 1; it <= iters; it++ {
				// Compute the interior.
				w.Exec(computeInstr)
				// Stamp and send our boundary row to the neighbour.
				w.StGlobalU64(r.out+stamp, uint64(it))
				if hostAssisted {
					core.DevRequestAssist(w, r.assist, uint64(it))
					if !core.DevAwaitAssistAckTimeout(w, r.assist, uint64(it), 10*sim.Millisecond) {
						panic("haloexchange: host assist acknowledgement timed out")
					}
				} else {
					r.rma.DevPut(w, 0, r.outN, r.peerIn, int(haloBytes), extoll.FlagReqNotif)
					if _, ok := r.rma.DevWaitNotifTimeout(w, 0, extoll.ClassRequester, 10*sim.Millisecond); !ok {
						panic("haloexchange: requester notification timed out")
					}
				}
				// Wait for the neighbour's halo of this iteration.
				w.PollGlobalU64(r.in+stamp, uint64(it))
			}
			if isA {
				endA = w.Now()
			}
		})
	}
	doneA := launch(a, true)
	doneB := launch(b, false)
	tb.E.Run()
	if !doneA.Done() || !doneB.Done() {
		log.Fatal("halo exchange deadlocked")
	}
	return endA.Sub(startA)
}
