// Command putgettrace replays a single GPU-initiated put and prints the
// virtual-time event trace — every PCIe delivery, NIC pipeline stage and
// notification — for teaching and debugging the models.
//
//	putgettrace                 # EXTOLL put, 1KiB
//	putgettrace -fabric ib      # InfiniBand RDMA write
//	putgettrace -size 65536
//	putgettrace -size 64,1024,65536 -parallel 3  # one trace per size
//	putgettrace -json           # one JSON document, one object per replay
//	putgettrace -filter a.rma   # only the origin NIC's events
//	putgettrace -perfetto t.json # span/metric trace for ui.perfetto.dev
//	putgettrace -drop 0.2 -seed 7 # inject wire loss (retries in trace)
//
// With a comma-separated -size list, each size replays in its own
// isolated simulation; the replays shard over -parallel workers and the
// traces print in the listed order, byte-identical for any worker count.
// -perfetto merges all replays into one trace file, one process per
// replay and one thread track per component.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
	"putget/internal/runner"
	"putget/internal/sim"
	"putget/internal/trace"
)

// dumpOpts carries the rendering choices into the per-size replays.
type dumpOpts struct {
	filter   string // component/kind segment prefix, "" = everything
	perfetto bool   // also collect span/metric records for export
}

// replay is one traced put: the fabric, the payload size, the virtual
// time it completed (picoseconds, like each event's At) and the events
// recorded on the way. -json prints the list of replays as one document.
type replay struct {
	Fabric     string
	Size       int
	CompleteAt sim.Time
	Events     []trace.Event
	perfetto   []trace.PerfettoEvent
}

// text renders the replay as the human-readable trace.
func (r replay) text() string {
	var b strings.Builder
	if r.Fabric == "ib" {
		fmt.Fprintf(&b, "== InfiniBand: GPU-initiated RDMA write of %d bytes, queues on host ==\n", r.Size)
	} else {
		fmt.Fprintf(&b, "== EXTOLL: GPU-initiated put of %d bytes, dev2dev-direct ==\n", r.Size)
	}
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "%12v  %s\n", ev.At, ev.Msg)
	}
	if r.Fabric == "ib" {
		fmt.Fprintf(&b, "== write complete at %v ==\n", r.CompleteAt)
	} else {
		fmt.Fprintf(&b, "== put complete at %v ==\n", r.CompleteAt)
	}
	return b.String()
}

func main() {
	var (
		fabric    = flag.String("fabric", "extoll", "extoll or ib")
		sizes     = flag.String("size", "1024", "payload size in bytes (comma-separated list replays one trace per size)")
		parallel  = flag.Int("parallel", 0, "trace-harness workers (0 = GOMAXPROCS, 1 = sequential)")
		jsonOut   = flag.Bool("json", false, "emit the trace as JSON")
		catFilter = flag.String("filter", "", "only show events from this component prefix")
		perfetto  = flag.String("perfetto", "", "write a Chrome/Perfetto trace-event file to this path")
		dropRate  = flag.Float64("drop", 0, "wire packet-drop probability (enables fault injection + reliability)")
		seed      = flag.Uint64("seed", 0, "fault-injection master seed")
	)
	flag.Parse()

	var trc func(p cluster.Params, size int, opt dumpOpts, pid int) replay
	switch *fabric {
	case "extoll":
		trc = traceExtoll
	case "ib":
		trc = traceIB
	default:
		fmt.Fprintln(os.Stderr, "unknown fabric; use extoll or ib")
		os.Exit(1)
	}

	var sz []int
	for _, field := range strings.Split(*sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", field)
			os.Exit(1)
		}
		sz = append(sz, v)
	}

	// Pre-validate the parameter sets the trace cells will build (one per
	// size) so a bad -drop rate fails with a message, not a worker panic.
	for _, size := range sz {
		p := cluster.Default()
		p.GPUDevMemSize = uint64(2*size) + (64 << 20)
		p.HostRAMSize = 96 << 20
		if *dropRate > 0 {
			p.FaultInject = true
			p.FaultSeed = *seed
			p.FaultDropRate = *dropRate
		}
		if err := p.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "putgettrace: %v\n", err)
			os.Exit(1)
		}
	}

	opt := dumpOpts{filter: *catFilter, perfetto: *perfetto != ""}
	results, replays, perf := runTraces(trc, *fabric, sz, *parallel, opt, *dropRate, *seed)

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "putgettrace: %s: %v\n", r.Name, r.Err)
			continue
		}
		if !*jsonOut {
			fmt.Print(r.Output)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, replays); err != nil {
			fmt.Fprintf(os.Stderr, "putgettrace: %v\n", err)
			os.Exit(1)
		}
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintf(os.Stderr, "putgettrace: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WritePerfetto(f, perf); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "putgettrace: write %s: %v\n", *perfetto, err)
			os.Exit(1)
		}
	}
}

// writeJSON prints the replays as one JSON array, in listed order.
func writeJSON(w io.Writer, replays []replay) error {
	doc, err := json.MarshalIndent(replays, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", doc)
	return err
}

// runTraces replays one trace per size, sharded over the worker pool, and
// returns per-size results (text traces) and replays in listed order,
// plus the merged Perfetto records (one process per replay). Each cell
// fills its own slot, so the text, the JSON and the Perfetto document
// are byte-identical for any worker count.
func runTraces(trc func(p cluster.Params, size int, opt dumpOpts, pid int) replay,
	fabric string, sz []int, parallel int, opt dumpOpts, dropRate float64, seed uint64) ([]runner.Result, []replay, []trace.PerfettoEvent) {
	replays := make([]replay, len(sz))
	cells := make([]runner.Cell, len(sz))
	for i, size := range sz {
		i, size := i, size
		cells[i] = runner.Cell{Name: fmt.Sprintf("%s/%dB", fabric, size), Run: func() string {
			p := cluster.Default()
			p.GPUDevMemSize = uint64(2*size) + (64 << 20)
			p.HostRAMSize = 96 << 20
			if dropRate > 0 {
				p.FaultInject = true
				p.FaultSeed = seed
				p.FaultDropRate = dropRate
			}
			replays[i] = trc(p, size, opt, i)
			return replays[i].text()
		}}
	}
	results := runner.Run(cells, runner.Options{
		Parallel: parallel,
		Progress: func(r runner.Result) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "[%s FAILED after %.1fs]\n", r.Name, r.Elapsed.Seconds())
			}
		},
	})
	var perf []trace.PerfettoEvent
	for _, r := range replays {
		perf = append(perf, r.perfetto...)
	}
	return results, replays, perf
}

func attachTrace(e *sim.Engine) *trace.Recorder {
	return trace.Attach(e, 100000)
}

// record collects a finished replay from its recorder: the events that
// pass the filter and, when an export was requested, the Perfetto
// records under one process named fabric/size.
func record(r *trace.Recorder, e *sim.Engine, fabric string, size int, opt dumpOpts, pid int) replay {
	rep := replay{Fabric: fabric, Size: size, CompleteAt: e.Now(), Events: r.Events()}
	if opt.filter != "" {
		rep.Events = r.Filter(opt.filter)
	}
	if opt.perfetto {
		rep.perfetto = r.PerfettoEvents(pid, fmt.Sprintf("%s/%dB", fabric, size))
	}
	return rep
}

func traceExtoll(p cluster.Params, size int, opt dumpOpts, pid int) replay {
	tb := cluster.NewExtollPair(p)
	defer tb.Shutdown()
	rec := attachTrace(tb.E)
	ra, rb := core.NewRMA(tb.A), core.NewRMA(tb.B)
	src := tb.A.AllocDev(uint64(size))
	dst := tb.B.AllocDev(uint64(size))
	srcN := ra.Register(src, uint64(size))
	dstN := rb.Register(dst, uint64(size))
	ra.OpenPort(0)
	rb.OpenPort(0)
	extoll.ConnectPorts(tb.A.Extoll, 0, tb.B.Extoll, 0)

	done := tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		tb.E.Tracef("gpu: kernel starts, posting WR")
		ra.DevPut(w, 0, srcN, dstN, size, extoll.FlagReqNotif|extoll.FlagCompNotif)
		tb.E.Tracef("gpu: WR posted, polling requester notification")
		//putget:allow boundedwait -- fault-free replay of a known-complete schedule; a Timeout variant would perturb the traced span bytes this tool exists to pin
		ra.DevWaitNotif(w, 0, extoll.ClassRequester)
		tb.E.Tracef("gpu: requester notification consumed")
	})
	tb.E.Run()
	if !done.Done() {
		panic("putgettrace: EXTOLL kernel did not complete")
	}
	return record(rec, tb.E, "extoll", size, opt, pid)
}

func traceIB(p cluster.Params, size int, opt dumpOpts, pid int) replay {
	tb := cluster.NewIBPair(p)
	defer tb.Shutdown()
	rec := attachTrace(tb.E)
	va, vb := core.NewVerbs(tb.A), core.NewVerbs(tb.B)
	src := tb.A.AllocDev(uint64(size))
	dst := tb.B.AllocDev(uint64(size))
	srcMR := va.RegMR(src, uint64(size))
	dstMR := vb.RegMR(dst, uint64(size))
	qa := va.CreateQP(64, 16, 64, false)
	qb := vb.CreateQP(64, 16, 64, false)
	core.ConnectVQPs(qa, qb)

	done := tb.A.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		tb.E.Tracef("gpu: kernel starts, building WQE (%d-instruction post path)", 442)
		va.DevPostSend(w, qa, ibsim.WQE{
			Opcode: ibsim.OpRDMAWrite, Flags: ibsim.FlagSignaled, WRID: 1,
			LAddr: uint64(src), LKey: srcMR.LKey, Length: size,
			RAddr: uint64(dst), RKey: dstMR.RKey,
		})
		tb.E.Tracef("gpu: doorbell rung, polling send CQ")
		//putget:allow boundedwait -- fault-free replay of a known-complete schedule; a Timeout variant would perturb the traced span bytes this tool exists to pin
		va.DevPollCQ(w, qa.SendCQ)
		tb.E.Tracef("gpu: completion consumed")
	})
	_ = qb
	tb.E.Run()
	if !done.Done() {
		panic("putgettrace: IB kernel did not complete")
	}
	return record(rec, tb.E, "ib", size, opt, pid)
}
