package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"putget/internal/bench"
	"putget/internal/cluster"
	"putget/internal/faults"
	"putget/internal/gpusim"
	"putget/internal/kv"
	"putget/internal/shmem"
	"putget/internal/sim"
	"putget/internal/topo"
	"putget/internal/transport"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"pair-gpu", "pair-host", "kvserve", "allreduce"}

// Full-size iteration counts, sized so one pass takes 2-5 s on a 2-core
// 2.1 GHz x86-64 host. Workload constructors divide them by a shrink factor
// (1 for the benchmark, larger for the package tests).
const (
	gpuPingPongIters  = 500 // per (mode, message size) on pair-gpu
	hostPingPongIters = 250 // per (mode, message size) on pair-host
	pingPongWarmup    = 10
	ratePairs         = 32
	rateMsgs          = 250 // per pair
	kvPerClient       = 400 // 4 clients x 400 = 1600 requests per cell
	allReduceRanks    = 128
	setupProbeBuilds  = 20
)

var pingPongSizes = []int{4, 4 << 10, 64 << 10}

// workload is one benchmark input: the cells a pass runs one after
// another, plus the testbed builds that stand for its set-up cost.
type workload struct {
	name  string
	cells []cell
	// builds are the pair-testbed constructions the cells perform inside
	// public calls that cannot be split (bench.PingPong, kv.Run); a pass
	// times each kind setupProbeBuilds times and charges its median once
	// per use. Empty when the cells time their own set-up phase.
	builds []setupBuild
}

// setupBuild is one kind of testbed a workload builds, and how often.
type setupBuild struct {
	uses  int
	build func() // cluster constructor + transport.New, then Shutdown
}

// cell is one simulation: it runs through public calls and checks its
// own outputs. ph marks the set-up / sim / verify boundaries.
type cell struct {
	name string
	run  func(ph *phaseClock) (outcome, error)
}

// outcome is a cell's virtual results. canon renders every one of them
// and feeds the determinism check and model.digest; the other fields
// feed the model statistics.
type outcome struct {
	canon     string
	events    uint64
	virt      sim.Duration
	gpuInstr  uint64
	kv        *kv.Metrics
	allreduce sim.Duration
	maxDepth  int
	built     int
	conns     int
}

// newWorkload builds workload name for seed. shrink divides every
// iteration count (and the allreduce rank count); 1 is the benchmark.
func newWorkload(name string, seed uint64, shrink int) (*workload, error) {
	div := func(n int) int {
		if n /= shrink; n < 1 {
			n = 1
		}
		return n
	}
	switch name {
	case "pair-gpu":
		modes := map[transport.Kind][]bench.ControlMode{
			transport.KindExtoll: {transport.Direct, transport.PollOnGPU},
			transport.KindIB:     {transport.QueuesOnGPU, transport.QueuesOnHost},
		}
		return pairWorkload(name, modes, []bench.RateMethod{bench.RateBlocks, bench.RateKernels},
			div(gpuPingPongIters), div(rateMsgs)), nil
	case "pair-host":
		both := []bench.ControlMode{transport.HostControlled, transport.HostAssisted}
		modes := map[transport.Kind][]bench.ControlMode{transport.KindExtoll: both, transport.KindIB: both}
		return pairWorkload(name, modes, []bench.RateMethod{bench.RateHostControlled, bench.RateAssisted},
			div(hostPingPongIters), div(rateMsgs)), nil
	case "kvserve":
		return kvWorkload(seed, div(kvPerClient)), nil
	case "allreduce":
		n := allReduceRanks / shrink
		if n < 4 {
			n = 4
		}
		return allReduceWorkload(seed, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var fabrics = []transport.Kind{transport.KindExtoll, transport.KindIB}

// pairBuild times what bench's rigs and kv.Run build per cell.
func pairBuild(k transport.Kind, p cluster.Params) func() {
	return func() {
		var tb *cluster.Testbed
		if k == transport.KindExtoll {
			tb = cluster.NewExtollPair(p)
		} else {
			tb = cluster.NewIBPair(p)
		}
		transport.New(k, tb)
		tb.Shutdown()
	}
}

// pairWorkload is the paper's two-node grid for one set of control
// modes: a ping-pong sweep over pingPongSizes per (fabric, mode), and a
// message-rate cell per (fabric, method). Each ping-pong size and each
// rate cell builds one testbed inside the bench call.
func pairWorkload(name string, modes map[transport.Kind][]bench.ControlMode, methods []bench.RateMethod, iters, msgs int) *workload {
	p := cluster.Default()
	w := &workload{name: name}
	for _, k := range fabrics {
		k := k
		for _, m := range modes[k] {
			m := m
			w.cells = append(w.cells, cell{
				name: fmt.Sprintf("pingpong/%s/%s", k, m),
				run: func(ph *phaseClock) (outcome, error) {
					ph.begin("sim")
					res := make([]bench.LatencyResult, len(pingPongSizes))
					for i, size := range pingPongSizes {
						res[i] = bench.PingPong(p, k, m, size, iters, pingPongWarmup)
					}
					ph.begin("verify")
					return checkPingPong(res, iters)
				},
			})
		}
		for _, m := range methods {
			m := m
			w.cells = append(w.cells, cell{
				name: fmt.Sprintf("msgrate/%s/%s", k, m),
				run: func(ph *phaseClock) (outcome, error) {
					ph.begin("sim")
					res := bench.MessageRate(p, k, m, ratePairs, msgs)
					ph.begin("verify")
					return checkRate(res, msgs)
				},
			})
		}
		w.builds = append(w.builds, setupBuild{
			uses:  len(modes[k])*len(pingPongSizes) + len(methods),
			build: pairBuild(k, p),
		})
	}
	return w
}

// checkPingPong verifies one (fabric, mode) size sweep: every exchange
// measured, positive times, and a one-way latency that does not shrink
// as the message grows. bench.PingPong itself byte-checks the payload
// on the modes whose last ping is unmodified.
func checkPingPong(res []bench.LatencyResult, iters int) (outcome, error) {
	var o outcome
	for i, r := range res {
		if r.Iters != iters || r.HalfRTT <= 0 || r.PutTime < 0 || r.PollTime < 0 || r.Events == 0 {
			return o, fmt.Errorf("size %d: implausible result %+v", r.Size, r)
		}
		if i > 0 && r.HalfRTT < res[i-1].HalfRTT {
			return o, fmt.Errorf("half RTT falls from %v at %d B to %v at %d B",
				res[i-1].HalfRTT, res[i-1].Size, r.HalfRTT, r.Size)
		}
		o.canon += fmt.Sprintf("%d %d %d %d %d %+v %d;", r.Size, r.Iters, r.HalfRTT, r.PutTime, r.PollTime, r.Counters, r.Events)
		o.events += r.Events
		o.virt += 2 * r.HalfRTT * sim.Duration(r.Iters)
		o.gpuInstr += r.Counters.InstrExecuted
	}
	return o, nil
}

func checkRate(r bench.RateResult, msgs int) (outcome, error) {
	if r.Messages != ratePairs*msgs || r.Pairs != ratePairs || r.Elapsed <= 0 || r.Events == 0 {
		return outcome{}, fmt.Errorf("implausible result %+v", r)
	}
	return outcome{
		canon:  fmt.Sprintf("%d %d %d %d", r.Pairs, r.Messages, r.Elapsed, r.Events),
		events: r.Events,
		virt:   r.Elapsed,
	}, nil
}

// kvWorkload is kv.Sweep's grid, run cell by cell: both fabrics under
// every default fault plan, with each cell's fault seed derived from the
// workload seed exactly as kv.Sweep derives it.
func kvWorkload(seed uint64, perClient int) *workload {
	cfg := kv.DefaultConfig(seed)
	cfg.PerClient = perClient
	plans := kv.DefaultPlans()
	base := cluster.Default()
	base.FaultInject = true
	w := &workload{name: "kvserve"}
	for ki, k := range fabrics {
		k := k
		for pi, plan := range plans {
			fp := base
			fp.FaultSeed = faults.DeriveSeed(seed, uint64(ki*len(plans)+pi+1))
			fp.FaultDropRate = plan.DropRate
			fp.FaultCorruptRate = plan.CorruptRate
			fp.FaultDelayMax = plan.DelayMax
			cellCfg := cfg
			cellCfg.Outages = plan.Outages
			faultFree := plan.DropRate == 0 && plan.CorruptRate == 0 && plan.DelayMax == 0 && len(plan.Outages) == 0
			w.cells = append(w.cells, cell{
				name: fmt.Sprintf("kv/%s/%s", k, plan.Name),
				run: func(ph *phaseClock) (outcome, error) {
					ph.begin("sim")
					m := kv.Run(k, fp, cellCfg)
					ph.begin("verify")
					return checkKV(m, cellCfg, faultFree)
				},
			})
		}
		w.builds = append(w.builds, setupBuild{uses: len(plans), build: pairBuild(k, base)})
	}
	return w
}

// checkKV verifies a serving cell's accounting: every scheduled request
// issued and either served or counted as a quorum failure, one latency
// sample per success, and at least 99% served. A fault-free cell must
// also end with zero replication lag. Under faults a replica can stay
// stale until a read repairs it (EXTOLL lossy at seed 302 ends with lag
// 3), so lag is not checked there.
func checkKV(m kv.Metrics, cfg kv.Config, faultFree bool) (outcome, error) {
	want := cfg.Clients * cfg.PerClient
	switch {
	case m.Requests != want:
		return outcome{}, fmt.Errorf("issued %d requests, scheduled %d", m.Requests, want)
	case m.Ok+m.QuorumFails != m.Requests:
		return outcome{}, fmt.Errorf("ok %d + quorum failures %d != requests %d", m.Ok, m.QuorumFails, m.Requests)
	case len(m.Latencies) != m.Ok:
		return outcome{}, fmt.Errorf("%d latency samples for %d successes", len(m.Latencies), m.Ok)
	case float64(m.Ok) < 0.99*float64(m.Requests):
		return outcome{}, fmt.Errorf("served only %d of %d requests", m.Ok, m.Requests)
	case faultFree && m.EndLag != 0:
		return outcome{}, fmt.Errorf("replication lag %d after the drain window of a fault-free cell", m.EndLag)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, l := range m.Latencies {
		if l <= 0 {
			return outcome{}, fmt.Errorf("non-positive latency %v", l)
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return outcome{
		canon: fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d %d %d %d %d %x",
			m.Requests, m.Ok, m.QuorumFails, m.Timeouts, m.Retries, m.Rerouted, m.Hints,
			m.Handoffs, m.Repairs, m.Pings, m.MaxLag, m.EndLag, m.Elapsed, m.Events, h.Sum64()),
		events: m.Events,
		virt:   m.Elapsed,
		kv:     &m,
	}, nil
}

// allReduceParams shrinks per-node footprints as the scaling experiment
// does, so a many-rank world fits in host memory.
func allReduceParams() cluster.Params {
	p := cluster.Default()
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	p.ExtPorts = 72
	p.ExtNotifEntries = 128
	return p
}

// allReduceWorkload runs one verified n-rank allreduce of n words per
// (fabric on its topology, algorithm). The input words come from seed.
func allReduceWorkload(seed uint64, n int) *workload {
	w := &workload{name: "allreduce"}
	nets := []struct {
		k    transport.Kind
		spec topo.Kind
	}{{transport.KindExtoll, topo.FatTree}, {transport.KindIB, topo.Torus3D}}
	for _, net := range nets {
		net := net
		for _, alg := range []shmem.AllReduceAlg{shmem.Ring, shmem.RecursiveDoubling} {
			alg := alg
			w.cells = append(w.cells, cell{
				name: fmt.Sprintf("allreduce/%s/%s/%s/n=%d", net.k, net.spec, alg, n),
				run: func(ph *phaseClock) (outcome, error) {
					ph.begin("setup")
					world := shmem.NewWorldN(net.k, topo.Spec{Kind: net.spec}, n, allReduceParams(), 1<<20)
					defer world.Shutdown()
					vec := world.Malloc(uint64(8 * n))
					plan := world.NewAllReduce(alg, vec, n)
					want, err := seedAllReduce(world, vec, n, seed)
					if err != nil {
						return outcome{}, err
					}
					ph.begin("sim")
					t0 := world.CL.E.Now()
					world.Run(func(pe *shmem.PE, warp *gpusim.Warp) { plan.Run(pe, warp) })
					elapsed := world.CL.E.Now().Sub(t0)
					ph.begin("verify")
					return checkAllReduce(world, vec, want, elapsed)
				},
			})
		}
	}
	return w
}

// seedAllReduce writes seeded words into every rank's vector and returns
// the expected elementwise (wrapping) sums.
func seedAllReduce(w *shmem.World, vec uint64, words int, seed uint64) ([]uint64, error) {
	want := make([]uint64, words)
	buf := make([]byte, 8*words)
	rng := faults.NewSplitmix64(faults.DeriveSeed(seed, 0xa11))
	for r := 0; r < w.N(); r++ {
		for i := range want {
			v := rng.Next() >> 8
			want[i] += v
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if err := w.PE(r).HostWrite(vec, buf); err != nil {
			return nil, fmt.Errorf("seed rank %d: %w", r, err)
		}
	}
	return want, nil
}

func checkAllReduce(w *shmem.World, vec uint64, want []uint64, elapsed sim.Duration) (outcome, error) {
	buf := make([]byte, 8*len(want))
	for r := 0; r < w.N(); r++ {
		if err := w.PE(r).HostRead(vec, buf); err != nil {
			return outcome{}, fmt.Errorf("read rank %d: %w", r, err)
		}
		for i, x := range want {
			if got := binary.LittleEndian.Uint64(buf[8*i:]); got != x {
				return outcome{}, fmt.Errorf("rank %d word %d = %d, want %d", r, i, got, x)
			}
		}
	}
	if elapsed <= 0 {
		return outcome{}, fmt.Errorf("non-positive collective time %v", elapsed)
	}
	cl := w.CL
	depth := 0
	if cl.ExtNet != nil {
		depth = cl.ExtNet.MaxDepth()
	} else {
		depth = cl.IBNet.MaxDepth()
	}
	events := cl.E.Executed()
	return outcome{
		canon:     fmt.Sprintf("%d %d %d %d %d %x", elapsed, events, depth, cl.Built(), w.Connections(), fnv32(buf)),
		events:    events,
		virt:      elapsed,
		allreduce: elapsed,
		maxDepth:  depth,
		built:     cl.Built(),
		conns:     w.Connections(),
	}, nil
}

func fnv32(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// span is one benchmark-side interval: a pass, a cell or a phase of a
// cell, in host nanoseconds from the start of the pass. Parent is the
// enclosing span's ID, 0 for the pass itself.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a pass's spans in memory.
type tracer struct {
	origin time.Time
	spans  []span
}

// open starts a span under parent (an ID, 0 for none) and returns its ID.
func (t *tracer) open(parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.origin).Nanoseconds()})
	return id
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.origin).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// phaseClock times a cell's phases (set-up, sim, verify) and records one
// span per phase under the cell's span.
type phaseClock struct {
	t    *tracer
	cell int // the cell's span ID
	cur  int // the open phase's span ID, 0 if none
	dur  map[string]time.Duration
}

// begin closes the open phase and opens phase name.
func (c *phaseClock) begin(name string) {
	c.end()
	c.cur = c.t.open(c.cell, name)
}

func (c *phaseClock) end() {
	if c.cur != 0 {
		c.dur[c.t.spans[c.cur-1].Name] += c.t.close(c.cur)
		c.cur = 0
	}
}
