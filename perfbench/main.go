package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run reports with -trace 0: host cost of one
// pass, as a user of the simulator pays it.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer returns the metrics a run reports with -trace 1.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"runtime.handoff_share", "frac"},
		{"runtime.stack_share", "frac"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.allocs", "count"},
		{"runtime.allocs_per_event", "allocs/event"},
		{"runtime.gc_cycles", "count"},
	}
	// Every fold layer reports its CPU and allocation shares, except that
	// the runtime reports only CPU: allocations are charged to the code
	// that asked for them.
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "frac"})
		if l != "runtime" {
			defs = append(defs, metricDef{l + ".alloc_share", "frac"})
		}
	}
	for _, name := range microMetricNames() {
		unit := "allocs/op"
		switch {
		case strings.HasSuffix(name, "_ns"):
			unit = "ns/op"
		case strings.HasSuffix(name, "_ms"):
			unit = "ms/op"
		}
		defs = append(defs, metricDef{name, unit})
	}
	return append(defs,
		metricDef{"model.virt_us", "virt_us"},
		metricDef{"model.digest", "fnv32"},
		metricDef{"model.kv_p50_us", "virt_us"},
		metricDef{"model.kv_p999_us", "virt_us"},
		metricDef{"model.kv_ok_frac", "frac"},
		metricDef{"model.gpu_instr", "count"},
		metricDef{"model.allreduce_us", "virt_us"},
		metricDef{"kv.retries", "count"},
		metricDef{"kv.timeouts", "count"},
		metricDef{"kv.handoffs", "count"},
		metricDef{"topo.max_depth", "packets"},
		metricDef{"cluster.built_nodes", "count"},
		metricDef{"shmem.conns", "count"},
		metricDef{"phase.setup_s", "s"},
		metricDef{"phase.sim_s", "s"},
		metricDef{"phase.verify_s", "s"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed      = flag.Uint64("seed", 42, "workload seed")
		seconds   = flag.Int("seconds", 20, "measure for about this many host seconds")
		traced    = flag.Int("trace", 0, "1: report the per-layer metrics (profiles, spans, microbenchmarks); 0: the end-to-end metrics")
		child     = flag.Bool("child", false, "run one pass and stream its records (used by the benchmark itself)")
		cpuProf   = flag.String("cpuprofile", "", "with -child: write a CPU profile of the cells")
		allocProf = flag.String("allocprofile", "", "with -child: write an allocation profile")
		foldArg   = flag.String("fold", "", "print the layer table of these comma-separated pprof files (CPU and/or allocation) and exit")
	)
	flag.Parse()

	if *foldArg != "" {
		cpu, alloc, err := foldFiles(strings.Split(*foldArg, ","))
		if err != nil {
			fatal(err)
		}
		fmt.Print(layerTable(cpu, alloc))
		return
	}
	w, err := newWorkload(*name, *seed, 1)
	if err != nil {
		fatal(err)
	}
	if *child {
		if err := runPass(w, os.Stdout, *cpuProf, *allocProf); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	res, err := measure(w.name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts cells attempted and failed across passes and checks that
// every pass gives every cell the same virtual results.
type tally struct {
	attempted, failed int
	digests           map[string]uint32
}

func (t *tally) cell(pass int, c cellRecord) {
	t.attempted++
	switch prev, seen := t.digests[c.Name]; {
	case c.Err != "":
		t.fail(fmt.Sprintf("pass %d %s: %s", pass, c.Name, c.Err))
	case seen && prev != c.Digest:
		t.fail(fmt.Sprintf("pass %d %s: virtual results differ from pass 0 (digest %08x, was %08x)", pass, c.Name, c.Digest, prev))
	case !seen:
		t.digests[c.Name] = c.Digest
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", msg)
}

// measure runs fresh-process passes of workload name until the time
// budget is spent, then summarizes them. A traced run alternates plain
// and profiled passes after running the microbenchmarks.
func measure(name string, seed uint64, budget time.Duration, traced bool, out io.Writer) (result, error) {
	deadline := time.Now().Add(budget)
	// A pass that livelocks is killed, so the run still ends in time.
	ctx, cancel := context.WithTimeout(context.Background(), budget+150*time.Second)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	dir := filepath.Join(".bench_build", "trace")
	var microVals map[string]float64
	if traced {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		stale, _ := filepath.Glob(filepath.Join(dir, name+".pass*.pprof")) // the pattern is well-formed
		for _, f := range stale {
			if err := os.Remove(f); err != nil {
				return result{}, err
			}
		}
		if microVals, err = runMicros(3, "50ms"); err != nil {
			return result{}, err
		}
	}
	minPlain := 3
	if traced {
		minPlain = 1
	}
	t := &tally{digests: map[string]uint32{}}
	var plain, profiled []*passRecord
	var profiles []string
	for i := 0; ; i++ {
		args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10)}
		prof := traced && i%2 == 1
		if prof {
			cpu := filepath.Join(dir, fmt.Sprintf("%s.pass%d.cpu.pprof", name, i))
			alloc := filepath.Join(dir, fmt.Sprintf("%s.pass%d.alloc.pprof", name, i))
			args = append(args, "-cpuprofile", cpu, "-allocprofile", alloc)
			profiles = append(profiles, cpu, alloc)
		}
		rec, err := runChild(ctx, exe, args, i, t)
		if err != nil {
			return result{}, err
		}
		if rec != nil && prof {
			profiled = append(profiled, rec)
		} else if rec != nil {
			plain = append(plain, rec)
		}
		enough := len(plain) >= minPlain && (!traced || len(profiled) >= 1)
		if time.Now().After(deadline) && (enough || t.failed > 0) {
			break
		}
	}

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	if !res.Correct {
		return res, nil
	}
	fmt.Fprintf(out, "workload %s  seed %d  passes %d plain + %d profiled  cells %d attempted, %d failed\n",
		name, seed, len(plain), len(profiled), t.attempted, t.failed)
	defs, vals := endToEnd, endToEndValues(plain)
	if traced {
		var table string
		if vals, table, err = perLayerValues(plain, profiled, microVals, profiles); err != nil {
			return result{}, err
		}
		fmt.Fprint(out, table)
		if err := writeTrace(dir, name, table, profiled); err != nil {
			return result{}, err
		}
		defs = perLayer()
	}
	for _, def := range defs {
		res.Metrics[def.name] = metricValue{printSummary(out, def, vals[def.name]), def.unit}
	}
	if !traced {
		// The times as measured, before scaling to the reference speed.
		printSummary(out, metricDef{"host_wall_s", "s"}, collect(plain, func(r *passRecord) float64 { return r.HostWallS }))
		printSummary(out, metricDef{"host_cpu_s", "s"}, collect(plain, func(r *passRecord) float64 { return r.HostCPUS }))
		printSummary(out, metricDef{"host_setup_s", "s"}, collect(plain, func(r *passRecord) float64 { return r.HostSetupS }))
	}
	return res, nil
}

// endToEndValues returns each end-to-end metric's per-pass samples.
func endToEndValues(plain []*passRecord) map[string][]float64 {
	return map[string][]float64{
		"wall_s":      collect(plain, func(r *passRecord) float64 { return r.WallS }),
		"cpu_s":       collect(plain, func(r *passRecord) float64 { return r.CPUS }),
		"setup_s":     collect(plain, func(r *passRecord) float64 { return r.SetupS }),
		"peak_rss_mb": collect(plain, func(r *passRecord) float64 { return r.PeakRSSMB }),
		"alloc_mb":    collect(plain, func(r *passRecord) float64 { return r.AllocMB }),
	}
}

// runChild runs one pass in a fresh process and feeds its cell records
// to t. It returns the pass record, or nil if the pass did not finish
// (its unreported cells then count as one failure).
func runChild(ctx context.Context, exe string, args []string, pass int, t *tally) (*passRecord, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rec, readErr := readPass(stdout, pass, t)
	io.Copy(io.Discard, stdout) // let the child finish writing before Wait closes the pipe
	waitErr := cmd.Wait()
	if waitErr != nil || readErr != nil || rec == nil {
		t.attempted++
		t.fail(fmt.Sprintf("pass %d died: wait %v, read %v", pass, waitErr, readErr))
		return nil, nil
	}
	return rec, nil
}

// readPass reads a pass's records, feeding its cells to t, and returns
// the pass record (nil if the stream ended before it).
func readPass(r io.Reader, pass int, t *tally) (*passRecord, error) {
	var rec *passRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return rec, fmt.Errorf("unreadable record: %w", err)
		}
		if r.Cell != nil {
			t.cell(pass, *r.Cell)
		}
		if r.Pass != nil {
			rec = r.Pass
		}
	}
	return rec, sc.Err()
}

// perLayerValues computes every per-layer metric's samples and the
// layer table.
func perLayerValues(plain, profiled []*passRecord, microVals map[string]float64, profiles []string) (map[string][]float64, string, error) {
	vals := map[string][]float64{}
	for _, r := range plain {
		events := r.Model["sim.events"]
		for k, v := range r.Model {
			vals[k] = append(vals[k], v)
		}
		if events > 0 {
			vals["sim.ns_per_event"] = append(vals["sim.ns_per_event"], r.Phases["sim"]*1e9/events)
			vals["runtime.allocs_per_event"] = append(vals["runtime.allocs_per_event"], r.Model["runtime.allocs"]/events)
		}
		vals["phase.setup_s"] = append(vals["phase.setup_s"], r.HostSetupS)
		vals["phase.sim_s"] = append(vals["phase.sim_s"], r.Phases["sim"])
		vals["phase.verify_s"] = append(vals["phase.verify_s"], r.Phases["verify"])
	}
	for k, v := range microVals {
		vals[k] = []float64{v}
	}
	plainWall := quartiles(collect(plain, func(r *passRecord) float64 { return r.HostWallS }))[1]
	profWall := quartiles(collect(profiled, func(r *passRecord) float64 { return r.HostWallS }))[1]
	if plainWall > 0 {
		vals["trace.overhead_frac"] = []float64{profWall/plainWall - 1}
	}

	cpu, alloc, err := foldFiles(profiles)
	if err != nil {
		return nil, "", err
	}
	ct, at := cpu.total(), alloc.total()
	if ct == 0 || at == 0 {
		return nil, "", errors.New("profiled pass recorded no CPU or allocation samples")
	}
	var sum float64
	for _, l := range layers {
		s := cpu.byLayer[l] / ct
		sum += s
		vals[l+".cpu_share"] = []float64{s}
		vals[l+".alloc_share"] = []float64{alloc.byLayer[l] / at}
	}
	vals["runtime.handoff_share"] = []float64{cpu.handoff / ct}
	vals["runtime.stack_share"] = []float64{cpu.stack / ct}
	table := layerTable(cpu, alloc) + fmt.Sprintf("cpu shares sum to %.4f over %d profiled pass(es)\n", sum, len(profiled))
	return vals, table, nil
}

// writeTrace writes the layer table and the profiled passes' spans.
func writeTrace(dir, name, table string, profiled []*passRecord) error {
	if err := os.WriteFile(filepath.Join(dir, name+".layers.txt"), []byte(table), 0o644); err != nil {
		return err
	}
	passes := make([][]span, len(profiled))
	for i, r := range profiled {
		passes[i] = r.Spans
	}
	doc, err := json.MarshalIndent(map[string]any{"workload": name, "passes": passes}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.json"), doc, 0o644)
}

// foldFiles folds pprof files, CPU and allocation profiles in any mix,
// into one CPU and one allocation result.
func foldFiles(paths []string) (cpu, alloc foldResult, err error) {
	cpu = foldResult{kind: "cpu", byLayer: map[string]float64{}}
	alloc = foldResult{kind: "alloc", byLayer: map[string]float64{}}
	for _, p := range paths {
		fr, err := foldFile(p)
		if err != nil {
			return cpu, alloc, err
		}
		if fr.kind == "cpu" {
			cpu.add(fr)
		} else {
			alloc.add(fr)
		}
	}
	return cpu, alloc, nil
}

func collect(rs []*passRecord, get func(*passRecord) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = get(r)
	}
	return out
}

// printSummary prints a metric's median, quartiles and sample count and
// returns the median (0 when there are no samples).
func printSummary(out io.Writer, def metricDef, xs []float64) float64 {
	q := quartiles(xs)
	fmt.Fprintf(out, "%-28s %14.6g %-12s q1 %.6g  q3 %.6g  n %d\n", def.name, q[1], def.unit, q[0], q[2], len(xs))
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by Python's statistics.quantiles(n=4) (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(d)-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
