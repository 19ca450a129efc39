package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/runner"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproduced paper figure: several series over a shared
// x-range.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Format renders the figure as an aligned text table, one row per x value
// and one column per series.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteString("\n")
	// Collect the union of x values (series usually share them).
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-12.0f", x)
		for _, s := range f.Series {
			val, ok := seriesAt(s, x)
			if !ok {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			fmt.Fprintf(&b, " %22.4g", val)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(y-axis: %s)\n", f.YLabel)
	return b.String()
}

func seriesAt(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// CounterTable is a reproduced paper table of performance counters.
type CounterTable struct {
	ID      string
	Title   string
	Columns []string
	Rows    []CounterRow
}

// CounterRow is one metric across the table's columns.
type CounterRow struct {
	Metric string
	Values []uint64
}

// Format renders the counter table.
func (t CounterTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-28s", "metric")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Metric)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %18d", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func counterRows(cols ...gpusim.Counters) []CounterRow {
	get := func(f func(gpusim.Counters) uint64) []uint64 {
		out := make([]uint64, len(cols))
		for i, c := range cols {
			out[i] = f(c)
		}
		return out
	}
	return []CounterRow{
		{"sysmem reads (32B)", get(func(c gpusim.Counters) uint64 { return c.SysmemReads32B })},
		{"sysmem writes (32B)", get(func(c gpusim.Counters) uint64 { return c.SysmemWrites32B })},
		{"globmem64 reads", get(func(c gpusim.Counters) uint64 { return c.Globmem64Reads })},
		{"globmem64 writes", get(func(c gpusim.Counters) uint64 { return c.Globmem64Writes })},
		{"l2 read hits", get(func(c gpusim.Counters) uint64 { return c.L2ReadHits })},
		{"l2 read requests", get(func(c gpusim.Counters) uint64 { return c.L2ReadRequests })},
		{"l2 write requests", get(func(c gpusim.Counters) uint64 { return c.L2WriteRequests })},
		{"memory accesses (r/w)", get(func(c gpusim.Counters) uint64 { return c.MemAccesses })},
		{"instructions executed", get(func(c gpusim.Counters) uint64 { return c.InstrExecuted })},
	}
}

// Experiment sweep parameters (paper axis ranges).
var (
	latencySizes   = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}
	bandwidthSizes = []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
	fig3Sizes      = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864}
	ratePairs      = []int{1, 2, 4, 8, 16, 32}
)

func latencyIters(size int) (iters, warmup int) {
	switch {
	case size >= 4<<20:
		return 2, 1
	case size >= 64<<10:
		return 5, 1
	default:
		return 10, 2
	}
}

func streamMessages(size int) int {
	n := (32 << 20) / size
	if n < 6 {
		return 6
	}
	if n > 192 {
		return 192
	}
	return n
}

// labels renders a mode/method list to series labels.
func labels[T fmt.Stringer](ms []T) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// gridCell identifies one (series, x) point of a figure grid.
type gridCell struct{ si, xi int }

// gridSeries measures every (series, x) cell of a figure — each on its
// own isolated engine and testbed — sharded across the harness worker
// pool (p.Parallel workers, GOMAXPROCS when 0). The series are assembled
// in fixed grid order, so the figure's bytes are identical for any
// worker count.
func gridSeries(p cluster.Params, seriesLabels []string, xs []int, eval func(si, xi int) float64) []Series {
	cells := make([]gridCell, 0, len(seriesLabels)*len(xs))
	for si := range seriesLabels {
		for xi := range xs {
			cells = append(cells, gridCell{si, xi})
		}
	}
	ys := runner.Map(p.Parallel, cells, func(_ int, c gridCell) float64 {
		return eval(c.si, c.xi)
	})
	series := make([]Series, len(seriesLabels))
	for si, label := range seriesLabels {
		s := Series{Label: label, X: make([]float64, len(xs)), Y: make([]float64, len(xs))}
		for xi, x := range xs {
			s.X[xi] = float64(x)
			s.Y[xi] = ys[si*len(xs)+xi]
		}
		series[si] = s
	}
	return series
}

// Fig1a reproduces the EXTOLL latency plot.
func Fig1a(p cluster.Params) Figure {
	modes := []ControlMode{ExtDirect, ExtPollOnGPU, ExtAssisted, ExtHostControlled}
	return Figure{ID: "Fig1a", Title: "EXTOLL RMA ping-pong latency",
		XLabel: "size[B]", YLabel: "latency [us]",
		Series: gridSeries(p, labels(modes), latencySizes, func(si, xi int) float64 {
			size := latencySizes[xi]
			iters, warm := latencyIters(size)
			return ExtollPingPong(p, modes[si], size, iters, warm).HalfRTT.Microseconds()
		})}
}

// Fig1b reproduces the EXTOLL bandwidth plot.
func Fig1b(p cluster.Params) Figure {
	modes := []ControlMode{ExtDirect, ExtAssisted, ExtHostControlled}
	return Figure{ID: "Fig1b", Title: "EXTOLL RMA streaming bandwidth",
		XLabel: "size[B]", YLabel: "bandwidth [MB/s]",
		Series: gridSeries(p, labels(modes), bandwidthSizes, func(si, xi int) float64 {
			size := bandwidthSizes[xi]
			return ExtollStream(p, modes[si], size, streamMessages(size)).BytesPerSec / 1e6
		})}
}

// Fig2 reproduces the EXTOLL message-rate plot (64-byte messages).
func Fig2(p cluster.Params) Figure {
	methods := []RateMethod{RateBlocks, RateKernels, RateAssisted, RateHostControlled}
	return Figure{ID: "Fig2", Title: "EXTOLL RMA message rate, 64B messages",
		XLabel: "pairs", YLabel: "message rate [msgs/s]",
		Series: gridSeries(p, labels(methods), ratePairs, func(si, xi int) float64 {
			return ExtollMessageRate(p, methods[si], ratePairs[xi], 100).MsgsPerSec
		})}
}

// Table1 reproduces the EXTOLL polling-approach counter comparison
// (ping-pong, 100 iterations, 1 KiB payload; counters from the origin
// GPU).
func Table1(p cluster.Params) CounterTable {
	modes := []ControlMode{ExtDirect, ExtPollOnGPU}
	res := runner.Map(p.Parallel, modes, func(_ int, m ControlMode) LatencyResult {
		return ExtollPingPong(p, m, 1024, 100, 0)
	})
	return CounterTable{
		ID:      "TableI",
		Title:   "EXTOLL polling approaches (100 iters, 1KiB)",
		Columns: []string{"system memory", "device memory"},
		Rows:    counterRows(res[0].Counters, res[1].Counters),
	}
}

// Fig3 reproduces the put-time vs polling-time decomposition.
func Fig3(p cluster.Params) Figure {
	modes := []ControlMode{ExtDirect, ExtPollOnGPU}
	return Figure{ID: "Fig3", Title: "EXTOLL polling time / WR generation time",
		XLabel: "payload[B]", YLabel: "polling time / put time",
		Series: gridSeries(p, []string{"system memory", "device memory"}, fig3Sizes,
			func(si, xi int) float64 {
				size := fig3Sizes[xi]
				iters, warm := latencyIters(size)
				return ExtollPingPong(p, modes[si], size, iters, warm).Ratio()
			})}
}

// Fig4a reproduces the InfiniBand latency plot.
func Fig4a(p cluster.Params) Figure {
	modes := []ControlMode{IBBufOnGPU, IBBufOnHost, IBAssisted, IBHostControlled}
	return Figure{ID: "Fig4a", Title: "InfiniBand Verbs ping-pong latency",
		XLabel: "size[B]", YLabel: "latency [us]",
		Series: gridSeries(p, labels(modes), latencySizes, func(si, xi int) float64 {
			size := latencySizes[xi]
			iters, warm := latencyIters(size)
			return IBPingPong(p, modes[si], size, iters, warm).HalfRTT.Microseconds()
		})}
}

// Fig4b reproduces the InfiniBand bandwidth plot.
func Fig4b(p cluster.Params) Figure {
	modes := []ControlMode{IBBufOnGPU, IBBufOnHost, IBAssisted, IBHostControlled}
	return Figure{ID: "Fig4b", Title: "InfiniBand Verbs streaming bandwidth",
		XLabel: "size[B]", YLabel: "bandwidth [MB/s]",
		Series: gridSeries(p, labels(modes), bandwidthSizes, func(si, xi int) float64 {
			size := bandwidthSizes[xi]
			return IBStream(p, modes[si], size, streamMessages(size)).BytesPerSec / 1e6
		})}
}

// Fig5 reproduces the InfiniBand message-rate plot.
func Fig5(p cluster.Params) Figure {
	methods := []RateMethod{RateBlocks, RateKernels, RateAssisted, RateHostControlled}
	return Figure{ID: "Fig5", Title: "InfiniBand message rate, 64B messages",
		XLabel: "pairs", YLabel: "message rate [msgs/s]",
		Series: gridSeries(p, labels(methods), ratePairs, func(si, xi int) float64 {
			return IBMessageRate(p, methods[si], ratePairs[xi], 80).MsgsPerSec
		})}
}

// Table2 reproduces the InfiniBand buffer-placement counter comparison.
func Table2(p cluster.Params) CounterTable {
	modes := []ControlMode{IBBufOnHost, IBBufOnGPU}
	res := runner.Map(p.Parallel, modes, func(_ int, m ControlMode) LatencyResult {
		return IBPingPong(p, m, 1024, 100, 0)
	})
	t := CounterTable{
		ID:      "TableII",
		Title:   "InfiniBand buffer placement (100 iters, 1KiB)",
		Columns: []string{"buffer on host", "buffer on GPU"},
		Rows:    counterRows(res[0].Counters, res[1].Counters),
	}
	post, poll := IBSingleOpInstr(p)
	t.Rows = append(t.Rows,
		CounterRow{"instr per ibv_post_send", []uint64{post, post}},
		CounterRow{"instr per ibv_poll_cq", []uint64{poll, poll}},
	)
	return t
}

// JSON renders the figure as a machine-readable document for external
// plotting tools.
func (f Figure) JSON() string {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}

// JSON renders the counter table as a machine-readable document.
func (t CounterTable) JSON() string {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}

// Runner describes one reproducible experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(p cluster.Params) string
	// RunJSON, when non-nil, renders the experiment as JSON.
	RunJSON func(p cluster.Params) string
}

// Experiments lists every figure and table of the paper's evaluation.
func Experiments() []Runner {
	return []Runner{
		{"fig1a", "EXTOLL latency vs size, four control modes",
			func(p cluster.Params) string { return Fig1a(p).Format() },
			func(p cluster.Params) string { return Fig1a(p).JSON() }},
		{"fig1b", "EXTOLL bandwidth vs size",
			func(p cluster.Params) string { return Fig1b(p).Format() },
			func(p cluster.Params) string { return Fig1b(p).JSON() }},
		{"fig2", "EXTOLL message rate vs connection pairs",
			func(p cluster.Params) string { return Fig2(p).Format() },
			func(p cluster.Params) string { return Fig2(p).JSON() }},
		{"table1", "EXTOLL polling-approach performance counters",
			func(p cluster.Params) string { return Table1(p).Format() },
			func(p cluster.Params) string { return Table1(p).JSON() }},
		{"fig3", "EXTOLL put/polling time decomposition",
			func(p cluster.Params) string { return Fig3(p).Format() },
			func(p cluster.Params) string { return Fig3(p).JSON() }},
		{"fig4a", "InfiniBand latency vs size, four control modes",
			func(p cluster.Params) string { return Fig4a(p).Format() },
			func(p cluster.Params) string { return Fig4a(p).JSON() }},
		{"fig4b", "InfiniBand bandwidth vs size",
			func(p cluster.Params) string { return Fig4b(p).Format() },
			func(p cluster.Params) string { return Fig4b(p).JSON() }},
		{"fig5", "InfiniBand message rate vs connection pairs",
			func(p cluster.Params) string { return Fig5(p).Format() },
			func(p cluster.Params) string { return Fig5(p).JSON() }},
		{"table2", "InfiniBand buffer-placement performance counters",
			func(p cluster.Params) string { return Table2(p).Format() },
			func(p cluster.Params) string { return Table2(p).JSON() }},
		{"asic", "EXTOLL FPGA vs projected ASIC (700 MHz / 128-bit)",
			func(p cluster.Params) string { return ASICComparison() }, nil},
		{"msgcmp", "two-sided send/recv vs one-sided put (§II-B)",
			func(p cluster.Params) string { return MsgVsPut(p) }, nil},
		{"claims", "the paper's §VI design claims, quantified",
			func(p cluster.Params) string { return ClaimsReport(p) }, nil},
		{"modern", "2014 testbed vs NVSHMEM-era what-if hardware",
			func(p cluster.Params) string { return ModernComparison() }, nil},
		{"staged", "GPUDirect vs host-staged communication (§II background)",
			func(p cluster.Params) string { return StagedComparison(p) }, nil},
		{"faultsweep", "latency/goodput degradation under wire loss + blackout recovery CDF",
			func(p cluster.Params) string { return FaultSweep(p, faultSweepSeed(p)) }, nil},
	}
}

// ExtraExperiments lists diagnostic experiments that are not part of the
// paper's evaluation. `-experiment all` deliberately excludes them so the
// shipped figure bytes stay stable; they run by explicit id.
func ExtraExperiments() []Runner {
	return []Runner{
		{"breakdown", "per-stage latency breakdown of a single 4KiB put (span tracing)",
			func(p cluster.Params) string { return StageBreakdown(p) }, nil},
		{"crossapi", "both fabrics mode-for-mode through the unified transport layer",
			func(p cluster.Params) string { return CrossAPI(p) }, nil},
		{"ablations", "the §VI design choices, each isolated: endianness, collective posts, ring placement, P2P collapse",
			func(p cluster.Params) string { return Ablations(p) }, nil},
		{"kvserve", "replicated put/get KV serving: quorums, failover, fault-sweep SLOs",
			func(p cluster.Params) string { return KVServe(p) }, nil},
		{"scaling", "N-rank collectives over switched fat-tree/torus fabrics + teams + torus fault sweep",
			func(p cluster.Params) string { return Scaling(p) }, nil},
		{"scaling512", "bounded scaling smoke: 512-rank allreduce + teams sub-table (CI)",
			func(p cluster.Params) string { return Scaling512(p) }, nil},
	}
}

// faultSweepSeed picks the master seed of faultsweep and kvserve: the
// -seed flag when given, else a fixed default so the experiment is
// reproducible out of the box.
func faultSweepSeed(p cluster.Params) uint64 {
	if p.FaultSeed != 0 {
		return p.FaultSeed
	}
	return 42
}

// Lookup finds an experiment by id, searching the paper evaluation first
// and the extra diagnostics second.
func Lookup(id string) (Runner, bool) {
	for _, r := range Experiments() {
		if r.ID == id {
			return r, true
		}
	}
	for _, r := range ExtraExperiments() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
