// Package gpusim models a CUDA-class GPU at the level the paper's analysis
// needs: SMs executing warps with per-instruction issue costs, a sectored
// L2 in front of device memory, uncached system-memory/MMIO accesses that
// cross the PCIe fabric, kernel/stream launch semantics, and nvprof-style
// performance counters.
//
// Device code is written as Go functions against the Warp API; every
// operation charges virtual time and bumps the counters the paper reads,
// so Table I/II-style analyses fall out of running the same kernels the
// latency benchmarks use.
package gpusim

import (
	"fmt"

	"putget/internal/memspace"
	"putget/internal/pcie"
	"putget/internal/sim"
)

// Config fixes a GPU's microarchitectural and link parameters.
type Config struct {
	Name string

	// SMs is the number of streaming multiprocessors; blocks are assigned
	// round-robin.
	SMs int
	// IssueCost is the effective time to issue one instruction from a
	// dependent single-warp instruction stream (covers pipeline depth and
	// the lack of ILP extraction on in-order SMs).
	IssueCost sim.Duration
	// IssueShare is how many co-resident warps an SM can sustain at full
	// single-warp speed: a dependent instruction stream occupies the
	// issue ports only 1/IssueShare of its latency, and other warps issue
	// in the bubbles. Defaults to 8 when zero.
	IssueShare int
	// L2HitLatency and DevMemLatency split a global access: hit pays the
	// first, miss pays both.
	L2HitLatency  sim.Duration
	DevMemLatency sim.Duration
	// PCIeOpOverhead is the extra LSU/interconnect cost the GPU adds to
	// every system-memory or MMIO access beyond fabric time.
	PCIeOpOverhead sim.Duration
	// PCIeSlots bounds concurrently outstanding system-memory/MMIO
	// operations across all warps (PCIe tag / LSU limits). Many blocks
	// polling notification queues in host memory therefore contend —
	// the effect that keeps GPU-controlled EXTOLL message rates below
	// host-controlled ones in the paper. 0 means unlimited.
	PCIeSlots int
	// PollLoopStall is the extra per-probe stall of a dependent
	// load-compare-branch spin loop (branch resolution, replay) beyond
	// issue cost and L2 latency.
	PollLoopStall sim.Duration
	// LaunchOverhead is charged per kernel launch.
	LaunchOverhead sim.Duration

	// L2Bytes/L2Assoc/L2Sector give the cache geometry (sector in bytes).
	L2Bytes  int
	L2Assoc  int
	L2Sector int

	// DevMemBase/DevMemSize place device memory in the node address space.
	DevMemBase memspace.Addr
	DevMemSize uint64

	// PCIe is the endpoint configuration for the GPU's fabric port. Its
	// ReadRate captures the peer-to-peer read collapse.
	PCIe pcie.EndpointConfig
}

// GPU is one simulated device on a node's PCIe fabric.
type GPU struct {
	cfg Config
	e   *sim.Engine
	f   *pcie.Fabric
	ep  *pcie.Endpoint

	devMem memspace.Region
	l2     *L2
	ctr    Counters

	smIssue   []*sim.Server // per-SM issue serialization
	nextSM    int
	pcieSlots *sim.Resource // nil when unlimited

	// inboundSig/inboundEpoch let polling warps sleep until the next
	// inbound write instead of burning one simulation event per probe;
	// PollGlobalU64Masked accounts the skipped probes exactly.
	inboundSig   *sim.Signal
	inboundEpoch uint64

	// copy engines (lazily started by CopyAsync)
	h2d, d2h *copyEngine

	// warps live, launches queued or paying their overhead, and copy
	// jobs not finished: a window needs one, none and none.
	warps, launching, copying int
	ra                        runAhead  // see runahead.go
	spins                     []*spinOp // free spin ops (see spin.go)

	defaultStream *Stream
	streamSeq     int // per-GPU: cells in other engines must not share state
}

// New creates a GPU, maps its device memory into the node space, attaches
// its PCIe endpoint and wires DMA-write coherence into the L2.
func New(e *sim.Engine, f *pcie.Fabric, cfg Config) *GPU {
	if cfg.SMs <= 0 {
		panic("gpusim: need at least one SM")
	}
	g := &GPU{cfg: cfg, e: e, f: f}
	ram := memspace.NewRAM(cfg.Name+".devmem", cfg.DevMemSize)
	g.devMem = f.Space().MustMap(cfg.DevMemBase, ram)
	g.ep = f.AddEndpoint(cfg.Name, cfg.PCIe)
	f.ClaimRAM(g.ep, g.devMem)
	g.l2 = NewL2(cfg.L2Bytes, cfg.L2Assoc, cfg.L2Sector)
	g.inboundSig = sim.NewSignal(e)
	g.ep.OnInboundWrite = func(addr memspace.Addr, n int, _ sim.Time) { g.wrote(addr, n) }
	g.ra.init(g)
	g.smIssue = make([]*sim.Server, cfg.SMs)
	for i := range g.smIssue {
		// Rate is irrelevant; issue is booked in durations.
		g.smIssue[i] = sim.NewServer(e, 1)
	}
	if cfg.PCIeSlots > 0 {
		g.pcieSlots = sim.NewResource(e, cfg.PCIeSlots)
	}
	g.defaultStream = g.NewStream()
	return g
}

// Name returns the configured device name.
func (g *GPU) Name() string { return g.cfg.Name }

// Endpoint returns the GPU's PCIe port (the NIC DMA-reads through it).
func (g *GPU) Endpoint() *pcie.Endpoint { return g.ep }

// DevMem returns the device-memory region in the node address space.
func (g *GPU) DevMem() memspace.Region { return g.devMem }

// Counters returns a snapshot of the performance counters.
func (g *GPU) Counters() Counters {
	g.mustNotLead("Counters()")
	return g.ctr
}

// ResetCounters zeroes the performance counters (nvprof session start).
func (g *GPU) ResetCounters() {
	g.mustNotLead("ResetCounters()")
	g.ctr = Counters{}
}

// L2 exposes the cache for tests and for explicit flushes.
func (g *GPU) L2() *L2 {
	g.mustNotLead("L2()")
	return g.l2
}

// Engine returns the simulation engine.
func (g *GPU) Engine() *sim.Engine { return g.e }

// isDevice reports whether addr falls in this GPU's device memory.
func (g *GPU) isDevice(addr memspace.Addr) bool { return g.devMem.Contains(addr) }

// ---- host-side (zero-time) helpers for setup and verification ----

// HostWrite copies data into the simulated machine without charging time;
// use for buffer initialization, as cudaMemcpy before timing starts.
func (g *GPU) HostWrite(addr memspace.Addr, data []byte) error {
	g.settle()
	if err := g.f.Space().Write(addr, data); err != nil {
		return err
	}
	g.wrote(addr, len(data))
	return nil
}

// wrote keeps the cache and the pollers honest after n bytes at addr
// were written from outside the SMs (an inbound DMA or MMIO write, a
// copy engine, a zero-time host write): the new data replaces whatever
// was cached.
func (g *GPU) wrote(addr memspace.Addr, n int) {
	g.mustNotLead("a write into device memory")
	g.l2.InvalidateRange(uint64(addr), n)
	g.inboundEpoch++
	g.inboundSig.Broadcast()
}

// writeWord is the functional (zero-time) word store into device memory.
func (g *GPU) writeWord(addr memspace.Addr, v uint64) {
	if err := g.f.Space().WriteU64(addr, v); err != nil {
		panic(fmt.Sprintf("gpusim: %s: %v", g.cfg.Name, err))
	}
}

// HostRead copies data out of the simulated machine without charging time.
func (g *GPU) HostRead(addr memspace.Addr, data []byte) error {
	return g.f.Space().Read(addr, data)
}

// HostWriteU64 writes one 64-bit word, zero-time.
func (g *GPU) HostWriteU64(addr memspace.Addr, v uint64) error {
	g.settle()
	if err := g.f.Space().WriteU64(addr, v); err != nil {
		return err
	}
	g.wrote(addr, 8)
	return nil
}

// HostReadU64 reads one 64-bit word, zero-time.
func (g *GPU) HostReadU64(addr memspace.Addr) (uint64, error) {
	return g.f.Space().ReadU64(addr)
}

// ---- streams and kernel launch ----

// Stream orders kernel launches like a CUDA stream: kernels on the same
// stream run back to back; kernels on different streams run concurrently.
// Its runner is an engine callback, not a process: it dequeues a launch,
// pays the launch overhead, runs the grid and waits for every warp to
// finish before it starts the next.
type Stream struct {
	run  sim.Step[*Stream]
	g    *GPU
	id   int
	q    *sim.Chan[launchReq]
	cur  launchReq // the kernel in flight
	span sim.SpanID
}

type launchReq struct {
	cfg  KernelConfig
	body func(w *Warp)
	done *sim.Completion
}

// NewStream creates an asynchronous stream.
func (g *GPU) NewStream() *Stream {
	g.streamSeq++
	s := &Stream{g: g, id: g.streamSeq, q: sim.NewChan[launchReq](g.e)}
	s.run.Init(g.e, s)
	s.run.At(g.e.Now(), (*Stream).recv)
	return s
}

// recv takes the oldest queued launch, or waits for one.
func (s *Stream) recv() {
	req, ok := s.q.TryRecv()
	if !ok {
		s.q.WaitFunc(s.run.Then((*Stream).recv))
		return
	}
	s.cur = req
	s.run.After(s.g.cfg.LaunchOverhead, (*Stream).launch)
}

// launch starts the grid once the launch overhead has passed.
func (s *Stream) launch() {
	g := s.g
	g.launching--
	if g.e.Observing() {
		s.span = g.e.SpanOpen(g.cfg.Name, "kernel",
			sim.Attr{Key: "blocks", Val: int64(s.cur.cfg.Blocks)},
			sim.Attr{Key: "stream", Val: int64(s.id)})
	}
	g.runGrid(s.cur.cfg, s.cur.body).WaitFunc(s.run.Then((*Stream).finish))
}

// finish resolves the kernel's completion and moves on to the next launch.
func (s *Stream) finish() {
	s.g.e.SpanClose(s.span)
	done := s.cur.done
	s.cur, s.span = launchReq{}, 0
	done.Complete()
	s.recv()
}

// KernelConfig describes a grid. Blocks of up to 1024 threads split into
// warps of 32; the kernel body runs once per warp (the paper's kernels
// use 1-thread blocks; applications use full blocks with SyncThreads and
// shared memory).
type KernelConfig struct {
	Blocks          int
	ThreadsPerBlock int
	// SharedBytes allocates a per-block scratchpad accessible through the
	// LdShared/StShared warp operations.
	SharedBytes int
	Stream      *Stream // nil = default stream
}

// Launch enqueues a kernel on a stream and returns a completion that
// resolves when all blocks have finished. body runs once per block with
// that block's Warp.
func (g *GPU) Launch(cfg KernelConfig, body func(w *Warp)) *sim.Completion {
	if cfg.Blocks <= 0 {
		panic("gpusim: kernel needs at least one block")
	}
	if cfg.ThreadsPerBlock <= 0 {
		cfg.ThreadsPerBlock = 1
	}
	if cfg.ThreadsPerBlock > 1024 {
		panic(fmt.Sprintf("gpusim: ThreadsPerBlock %d exceeds the 1024-thread block limit", cfg.ThreadsPerBlock))
	}
	g.settle()
	st := cfg.Stream
	if st == nil {
		st = g.defaultStream
	}
	g.launching++
	done := sim.NewCompletion(g.e)
	st.q.Send(launchReq{cfg: cfg, body: body, done: done})
	return done
}

// runGrid spawns every warp of every block immediately and returns a
// completion resolving when all have finished. All warps of a block share
// an SM (as on hardware), its barrier and its scratchpad.
func (g *GPU) runGrid(cfg KernelConfig, body func(w *Warp)) *sim.Completion {
	done := sim.NewCompletion(g.e)
	warpsPerBlock := (cfg.ThreadsPerBlock + 31) / 32
	remaining := cfg.Blocks * warpsPerBlock
	for b := 0; b < cfg.Blocks; b++ {
		blk := &Block{
			g:       g,
			idx:     b,
			warps:   warpsPerBlock,
			shared:  make([]byte, cfg.SharedBytes),
			barrier: sim.NewSignal(g.e),
		}
		sm := g.nextSM
		g.nextSM = (g.nextSM + 1) % g.cfg.SMs
		for wi := 0; wi < warpsPerBlock; wi++ {
			lanes := 32
			if wi == warpsPerBlock-1 {
				if rem := cfg.ThreadsPerBlock - 32*wi; rem < 32 {
					lanes = rem
				}
			}
			w := &Warp{
				g:      g,
				sm:     sm,
				Block:  b,
				WarpID: wi,
				Lanes:  lanes,
				block:  blk,
			}
			name := fmt.Sprintf("%s.b%d.w%d", g.cfg.Name, b, wi)
			g.warps++
			g.e.Spawn(name, func(p *sim.Proc) {
				w.p = p
				body(w)
				w.sync()
				g.warps--
				remaining--
				if remaining == 0 {
					done.Complete()
				}
			})
		}
	}
	return done
}

// Sync blocks p (a host-side process) until the completion resolves — the
// cudaStreamSynchronize analogue.
func (g *GPU) Sync(p *sim.Proc, done *sim.Completion) { done.Wait(p) }
