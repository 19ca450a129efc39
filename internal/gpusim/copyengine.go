package gpusim

import (
	"fmt"

	"putget/internal/memspace"
	"putget/internal/sim"
)

// The GPU's copy engines implement cudaMemcpyAsync: DMA between device
// and host memory over the GPU's own PCIe port. Real parts have separate
// H2D and D2H engines, so the two directions overlap; copies in the same
// direction serialize FIFO.
//
// Host-staged communication — the pre-GPUDirect hybrid model the paper's
// background contrasts — is built from these: D2H copy, host-side network
// transfer, H2D copy.

type copyReq struct {
	dst, src memspace.Addr
	n        int
	done     *sim.Completion
}

// copyLaunch is a copy engine's per-job driver and kickoff cost.
const copyLaunch = 1500 * sim.Nanosecond

// copyEngine is one direction's DMA engine. It runs as engine callbacks,
// one job at a time in FIFO order: kickoff, then the transfer booked on
// the GPU's PCIe port, then the completion.
type copyEngine struct {
	sim.Step[*copyEngine]
	g       *GPU
	q       *sim.Chan[copyReq]
	cur     copyReq  // the job in flight
	buf     []byte   // its bytes
	deliver sim.Time // when a D2H write train lands
}

// copyEngines lazily starts the two DMA engines.
func (g *GPU) copyEngines() {
	if g.h2d != nil {
		return
	}
	g.h2d = g.newCopyEngine()
	g.d2h = g.newCopyEngine()
}

func (g *GPU) newCopyEngine() *copyEngine {
	c := &copyEngine{g: g, q: sim.NewChan[copyReq](g.e)}
	c.Init(g.e, c)
	c.At(g.e.Now(), (*copyEngine).recv)
	return c
}

// CopyAsync enqueues a DMA copy between host and device memory (either
// direction, inferred from the addresses) and returns its completion —
// the cudaMemcpyAsync analogue. Device-to-device and host-to-host copies
// are rejected: use kernels or the CPU for those.
func (g *GPU) CopyAsync(dst, src memspace.Addr, n int) *sim.Completion {
	g.settle()
	g.copyEngines()
	d2h := g.isDevice(src) && !g.isDevice(dst)
	h2d := !g.isDevice(src) && g.isDevice(dst)
	if !d2h && !h2d {
		panic(fmt.Sprintf("gpusim: %s: CopyAsync needs one device and one host address (src %#x dst %#x)",
			g.cfg.Name, uint64(src), uint64(dst)))
	}
	g.copying++
	done := sim.NewCompletion(g.e)
	req := copyReq{dst: dst, src: src, n: n, done: done}
	if d2h {
		g.d2h.q.Send(req)
	} else {
		g.h2d.q.Send(req)
	}
	return done
}

// recv takes the oldest queued job, or waits for one.
func (c *copyEngine) recv() {
	req, ok := c.q.TryRecv()
	if !ok {
		c.q.WaitFunc(c.Then((*copyEngine).recv))
		return
	}
	c.cur = req
	c.After(copyLaunch, (*copyEngine).start)
}

// start books the transfer once the engine has kicked off.
func (c *copyEngine) start() {
	g, req := c.g, c.cur
	c.buf = make([]byte, req.n)
	if !g.isDevice(req.src) {
		// H2D: DMA-read host memory, land it in device memory.
		c.At(g.f.ReadBulkReserve(g.ep, req.src, c.buf), (*copyEngine).landed)
		return
	}
	// D2H: read device memory locally, stream posted writes to host. The
	// engine is busy while its egress link serializes them, then waits
	// for the last one to land.
	if err := g.f.Space().Read(req.src, c.buf); err != nil {
		panic(fmt.Sprintf("gpusim: %s: %v", g.cfg.Name, err))
	}
	sent, deliver := g.f.WritePayloadReserve(g.ep, req.dst, c.buf, nil)
	if req.n == 0 {
		c.At(deliver, (*copyEngine).finish)
		return
	}
	c.deliver = deliver
	c.At(sent, (*copyEngine).sent)
}

// sent: the D2H train has left the port; the job is done once it lands.
func (c *copyEngine) sent() { c.At(c.deliver, (*copyEngine).finish) }

// landed writes an H2D job's bytes into device memory.
func (c *copyEngine) landed() {
	g, req := c.g, c.cur
	if err := g.f.Space().Write(req.dst, c.buf); err != nil {
		panic(fmt.Sprintf("gpusim: %s: %v", g.cfg.Name, err))
	}
	g.wrote(req.dst, req.n)
	c.finish()
}

// finish resolves the job's completion and moves on to the next job.
func (c *copyEngine) finish() {
	done := c.cur.done
	c.cur, c.buf = copyReq{}, nil
	c.g.copying--
	done.Complete()
	c.recv()
}

// Copy runs CopyAsync and blocks the calling process until it completes —
// the synchronous cudaMemcpy analogue for host-side code.
func (g *GPU) Copy(p *sim.Proc, dst, src memspace.Addr, n int) {
	g.CopyAsync(dst, src, n).Wait(p)
}
