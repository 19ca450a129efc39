// Command putgetsweep runs parameter-sensitivity studies: it sweeps one
// testbed parameter across a list of values and reports a headline metric
// for each, quantifying how robust the paper's conclusions are to the
// calibration choices documented in internal/cluster/params.go.
//
//	putgetsweep -param gpu-issue -values 8,14,18,24,32 -metric lat1k
//	putgetsweep -param p2p-small -values 0.5e9,1.05e9,3e9 -metric bw256k
//	putgetsweep -param pcie-slots -values 1,2,4,8,16 -metric rate32
//	putgetsweep -param fault-drop -values 0,0.01,0.05 -parallel 4
//	putgetsweep -list
//
// Each swept value is one cell of the parallel experiment runner: it
// builds its own isolated simulation, so cells shard across -parallel
// workers while the result table keeps its deterministic value order
// (stdout is byte-identical for any worker count). A value whose
// measurement panics fails only its own row.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"putget/internal/bench"
	"putget/internal/cluster"
	"putget/internal/runner"
	"putget/internal/sim"
)

// knob applies one value of a swept parameter.
type knob struct {
	name string
	desc string
	set  func(p *cluster.Params, v float64)
}

var knobs = []knob{
	{"gpu-issue", "GPU per-instruction issue cost [ns]",
		func(p *cluster.Params, v float64) { p.GPUIssue = sim.Nanoseconds(v) }},
	{"gpu-poll-stall", "GPU spin-loop stall per probe [ns]",
		func(p *cluster.Params, v float64) { p.GPUPollStall = sim.Nanoseconds(v) }},
	{"pcie-slots", "outstanding GPU PCIe operations",
		func(p *cluster.Params, v float64) { p.GPUPCIeSlots = int(v) }},
	{"p2p-small", "P2P read bandwidth below the collapse [B/s]",
		func(p *cluster.Params, v float64) { p.P2PReadSmall = v }},
	{"p2p-large", "P2P read bandwidth above the collapse [B/s]",
		func(p *cluster.Params, v float64) { p.P2PReadLarge = v }},
	{"ext-req-cycles", "EXTOLL requester cycles per WR",
		func(p *cluster.Params, v float64) { p.ExtReqCycles = int(v) }},
	{"ext-wire-bw", "EXTOLL cable bandwidth [B/s]",
		func(p *cluster.Params, v float64) { p.ExtWireBW = v }},
	{"ib-wire-bw", "InfiniBand cable bandwidth [B/s]",
		func(p *cluster.Params, v float64) { p.IBWireBW = v }},
	{"host-mem-lat", "host memory latency [ns]",
		func(p *cluster.Params, v float64) { p.HostMemLat = sim.Nanoseconds(v) }},
	{"fault-drop", "wire loss probability (enables fault injection; rates near 1 kill the link and fail the row)",
		func(p *cluster.Params, v float64) { p.FaultInject = true; p.FaultSeed = 42; p.FaultDropRate = v }},
	{"fault-delay", "max extra wire delay [ns] (enables fault injection)",
		func(p *cluster.Params, v float64) {
			p.FaultInject = true
			p.FaultSeed = 42
			p.FaultDelayMax = sim.Nanoseconds(v)
		}},
	{"wire-depth-cap", "wire egress queue bound [packets] (0 = unbounded)",
		func(p *cluster.Params, v float64) { p.WireDepthCap = int(v) }},
}

// metric evaluates one headline number under a parameter set.
type metric struct {
	name string
	desc string
	unit string
	eval func(p cluster.Params) float64
}

var metrics = []metric{
	{"lat1k", "EXTOLL dev2dev-direct 1KiB one-way latency", "us",
		func(p cluster.Params) float64 {
			return bench.ExtollPingPong(p, bench.ExtDirect, 1024, 10, 2).HalfRTT.Microseconds()
		}},
	{"lat1k-host", "EXTOLL host-controlled 1KiB one-way latency", "us",
		func(p cluster.Params) float64 {
			return bench.ExtollPingPong(p, bench.ExtHostControlled, 1024, 10, 2).HalfRTT.Microseconds()
		}},
	{"bw256k", "EXTOLL host-controlled 256KiB bandwidth", "MB/s",
		func(p cluster.Params) float64 {
			return bench.ExtollStream(p, bench.ExtHostControlled, 256<<10, 16).BytesPerSec / 1e6
		}},
	{"bw4m", "EXTOLL host-controlled 4MiB bandwidth (collapsed)", "MB/s",
		func(p cluster.Params) float64 {
			return bench.ExtollStream(p, bench.ExtHostControlled, 4<<20, 6).BytesPerSec / 1e6
		}},
	{"rate32", "EXTOLL blocks message rate at 32 pairs", "msgs/s",
		func(p cluster.Params) float64 {
			return bench.ExtollMessageRate(p, bench.RateBlocks, 32, 80).MsgsPerSec
		}},
	{"ibrate32", "IB blocks message rate at 32 QPs", "msgs/s",
		func(p cluster.Params) float64 {
			return bench.IBMessageRate(p, bench.RateBlocks, 32, 80).MsgsPerSec
		}},
	{"iblat16", "IB bufOnGPU 16B one-way latency", "us",
		func(p cluster.Params) float64 {
			return bench.IBPingPong(p, bench.IBBufOnGPU, 16, 10, 2).HalfRTT.Microseconds()
		}},
	{"iblat1k-host", "IB host-controlled 1KiB one-way latency", "us",
		func(p cluster.Params) float64 {
			return bench.IBPingPong(p, bench.IBHostControlled, 1024, 10, 2).HalfRTT.Microseconds()
		}},
	{"retx1k", "retransmissions during EXTOLL host-controlled 1KiB ping-pong", "count",
		func(p cluster.Params) float64 {
			res := bench.ExtollPingPong(p, bench.ExtHostControlled, 1024, 10, 2)
			if res.Rel == nil {
				return 0
			}
			return float64(res.Rel.Retransmits)
		}},
}

func main() {
	var (
		list     = flag.Bool("list", false, "list parameters and metrics")
		param    = flag.String("param", "", "parameter to sweep")
		values   = flag.String("values", "", "comma-separated values")
		metricID = flag.String("metric", "lat1k", "metric to evaluate")
		asic     = flag.Bool("asic", false, "start from the ASIC profile")
		parallel = flag.Int("parallel", 0, "sweep-harness workers (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()

	if *list || *param == "" {
		fmt.Println("parameters:")
		for _, k := range knobs {
			fmt.Printf("  %-16s %s\n", k.name, k.desc)
		}
		fmt.Println("metrics:")
		for _, m := range metrics {
			fmt.Printf("  %-16s %s [%s]\n", m.name, m.desc, m.unit)
		}
		if *param == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var k *knob
	for i := range knobs {
		if knobs[i].name == *param {
			k = &knobs[i]
		}
	}
	if k == nil {
		fmt.Fprintf(os.Stderr, "unknown parameter %q (use -list)\n", *param)
		os.Exit(1)
	}
	var m *metric
	for i := range metrics {
		if metrics[i].name == *metricID {
			m = &metrics[i]
		}
	}
	if m == nil {
		fmt.Fprintf(os.Stderr, "unknown metric %q (use -list)\n", *metricID)
		os.Exit(1)
	}

	var vs []float64
	for _, field := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad value %q: %v\n", field, err)
			os.Exit(1)
		}
		vs = append(vs, v)
	}

	// Reject sweeps into nonsensical parameter space up front, before any
	// simulation time is spent (a zero ring size or negative rate would
	// otherwise surface as a panic deep inside a worker cell).
	for _, v := range vs {
		p := cluster.Default()
		if *asic {
			p = cluster.ASIC()
		}
		k.set(&p, v)
		if err := p.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "putgetsweep: %s=%g: %v\n", k.name, v, err)
			os.Exit(1)
		}
	}

	cells := make([]runner.Cell, len(vs))
	for i, v := range vs {
		v := v
		cells[i] = runner.Cell{Name: fmt.Sprintf("%s=%g", k.name, v), Run: func() string {
			p := cluster.Default()
			if *asic {
				p = cluster.ASIC()
			}
			p.Parallel = 1 // one worker per value cell; the pool is the outer level
			k.set(&p, v)
			return fmt.Sprintf("%14g %14.4g", v, m.eval(p))
		}}
	}
	results := runner.Run(cells, runner.Options{
		Parallel: *parallel,
		Progress: func(r runner.Result) {
			status := "done"
			if r.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%s %s in %.1fs]\n", r.Name, status, r.Elapsed.Seconds())
		},
	})

	fmt.Printf("sweep of %s (%s) against %s [%s]\n\n", k.name, k.desc, m.desc, m.unit)
	fmt.Printf("%14s %14s\n", k.name, m.unit)
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("%14g %14s\n", vs[r.Index], "ERROR")
			fmt.Fprintf(os.Stderr, "putgetsweep: %s: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Println(r.Output)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "putgetsweep: %d/%d values failed\n", failed, len(results))
		os.Exit(1)
	}
}
