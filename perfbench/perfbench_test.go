package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"putget/internal/bench"
	"putget/internal/kv"
)

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, layer, class string }{
		{"putget/internal/topo.(*Net[...]).hopAt.func1", "topo", ""},
		{"putget/internal/topo.(*Net[go.shape.struct { putget/internal/extoll.x int }]).hopAt.func1", "topo", ""},
		{"topo.(*Net[...]).hopAt.func1", "topo", ""},
		{"putget/internal/sim.(*Engine).loop", "sim", ""},
		{"putget/internal/sim.(*Chan[go.shape.uint8]).Recv", "sim", ""},
		{"putget/internal/kv.Run.func1", "kv", ""},
		{"putget/internal/stats.PercentileMulti", "other", ""},
		{"runtime.chanrecv1", "runtime", "handoff"},
		{"runtime.gopark", "runtime", "handoff"},
		{"runtime.newstack", "runtime", "stack"},
		{"runtime.(*unwinder).next", "runtime", "stack"},
		{"runtime.mallocgc", "runtime", ""},
		{"internal/runtime/atomic.(*Uint32).Load", "runtime", ""},
		{"main.runPass", "other", ""},
		{"sort.Float64s", "other", ""},
		{"encoding/json.(*encodeState).marshal", "other", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.fn); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
		if got := runtimeClass(c.fn); got != c.class {
			t.Errorf("runtimeClass(%q) = %q, want %q", c.fn, got, c.class)
		}
	}
}

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(num int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

// synthProfile encodes a profile with the given sample types and
// samples, each sample a leaf-first stack of frames (a frame of several
// names, innermost first, is one location with inlined lines) and a
// value per sample type.
func synthProfile(types []string, samples []struct {
	stack  [][]string
	values []int64
}) []byte {
	strs := []string{""}
	idx := map[string]int{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return uint64(i)
		}
		idx[s] = len(strs)
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var out pb
	for _, ty := range types {
		var vt pb
		vt.varint(1, str(ty))
		out.bytesField(1, vt.Bytes())
	}
	funcs := map[string]uint64{}
	locID := uint64(0)
	for _, s := range samples {
		var sm, locs, vals pb
		for _, frame := range s.stack {
			locID++
			var loc pb
			loc.varint(1, locID)
			for _, fn := range frame {
				if funcs[fn] == 0 {
					funcs[fn] = uint64(len(funcs) + 1)
					var f pb
					f.varint(1, funcs[fn])
					f.varint(2, str(fn))
					out.bytesField(5, f.Bytes())
				}
				var line pb
				line.varint(1, funcs[fn])
				loc.bytesField(4, line.Bytes())
			}
			out.bytesField(4, loc.Bytes())
			locs.Write(binary.AppendUvarint(nil, locID))
		}
		for _, v := range s.values {
			vals.Write(binary.AppendUvarint(nil, uint64(v)))
		}
		sm.bytesField(1, locs.Bytes())
		sm.bytesField(2, vals.Bytes())
		out.bytesField(2, sm.Bytes())
	}
	for _, s := range strs {
		out.bytesField(6, []byte(s))
	}
	return out.Bytes()
}

func TestFoldCPUByFlatFrame(t *testing.T) {
	type smp = struct {
		stack  [][]string
		values []int64
	}
	data := synthProfile([]string{"samples", "cpu"}, []smp{
		{[][]string{{"runtime.chanrecv1"}, {"putget/internal/sim.(*Chan[...]).Recv"}}, []int64{3, 30}},
		{[][]string{{"runtime.newstack"}, {"runtime.morestack"}}, []int64{1, 10}},
		{[][]string{{"putget/internal/topo.(*Net[...]).hopAt.func1"}}, []int64{4, 40}},
		// Inlined: the innermost line is the flat frame.
		{[][]string{{"putget/internal/sim.(*Engine).Now", "putget/internal/gpusim.(*Warp).issue"}}, []int64{2, 20}},
	})
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fold(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime": 40, "topo": 40, "sim": 20}
	if f.kind != "cpu" || f.total() != 100 || f.handoff != 30 || f.stack != 10 {
		t.Fatalf("fold = %+v", f)
	}
	for l, v := range want {
		if f.byLayer[l] != v {
			t.Errorf("%s = %v, want %v (fold %+v)", l, f.byLayer[l], v, f.byLayer)
		}
	}
}

func TestFoldAllocsByFirstNonRuntimeFrame(t *testing.T) {
	type smp = struct {
		stack  [][]string
		values []int64
	}
	data := synthProfile([]string{"alloc_objects", "alloc_space", "inuse_objects", "inuse_space"}, []smp{
		{[][]string{{"runtime.growslice"}, {"putget/internal/kv.(*coordinator).launch"}}, []int64{1, 100, 0, 0}},
		{[][]string{{"runtime.malg"}, {"runtime.newproc1"}, {"putget/internal/sim.(*Engine).SpawnAt"}}, []int64{1, 50, 0, 0}},
		{[][]string{{"runtime.doInit1"}}, []int64{1, 10, 0, 0}},
	})
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fold(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != "alloc" || f.byLayer["kv"] != 100 || f.byLayer["sim"] != 50 || f.byLayer["runtime"] != 10 {
		t.Fatalf("fold = %+v", f)
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode checks BENCHMARK.json names exactly the
// workloads and metrics, with their units, that the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(group string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code reports %d", group, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the code reports %v", group, i, got[i], want[i])
			}
			if !nameRE.MatchString(got[i].name) || seen[got[i].name] {
				t.Errorf("%s: bad or repeated name %q", group, got[i].name)
			}
			seen[got[i].name] = true
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer())
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a why", i, w.Name, workloadNames[i])
		}
	}
}

// smokeShrink divides every iteration count so each workload's pass
// takes well under a second.
const smokeShrink = 32

// runSmokePass runs one pass of a shrunken workload in-process and
// returns its record, failing the test on any cell error.
func runSmokePass(t *testing.T, name string, pass int, tl *tally, cpuProf, allocProf string) *passRecord {
	t.Helper()
	w, err := newWorkload(name, 7, smokeShrink)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runPass(w, &out, cpuProf, allocProf); err != nil {
		t.Fatal(err)
	}
	rec, err := readPass(&out, pass, tl)
	if err != nil || rec == nil {
		t.Fatalf("%s: pass record missing: %v", name, err)
	}
	return rec
}

// TestWorkloadsSmoke runs every workload twice at a tiny size through
// the real oracles and the cross-pass determinism check.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			tl := &tally{digests: map[string]uint32{}}
			var recs []*passRecord
			for pass := 0; pass < 2; pass++ {
				recs = append(recs, runSmokePass(t, name, pass, tl, "", ""))
			}
			if tl.failed != 0 || tl.attempted == 0 {
				t.Fatalf("%d of %d cells failed", tl.failed, tl.attempted)
			}
			a, b := recs[0], recs[1]
			if a.Model["model.digest"] != b.Model["model.digest"] || a.Model["sim.events"] != b.Model["sim.events"] {
				t.Fatalf("passes differ: digest %v/%v events %v/%v",
					a.Model["model.digest"], b.Model["model.digest"], a.Model["sim.events"], b.Model["sim.events"])
			}
			if a.WallS <= 0 || a.CPUS <= 0 || a.SetupS <= 0 || a.PeakRSSMB <= 0 || a.AllocMB <= 0 || a.Model["sim.events"] <= 0 {
				t.Fatalf("non-positive end-to-end value in %+v", a)
			}
		})
	}
}

func TestOraclesRejectBadResults(t *testing.T) {
	pp := []bench.LatencyResult{
		{Size: 4, Iters: 3, HalfRTT: 900, PutTime: 10, PollTime: 10, Events: 5},
		{Size: 4096, Iters: 3, HalfRTT: 800, PutTime: 10, PollTime: 10, Events: 5},
	}
	if _, err := checkPingPong(pp, 3); err == nil {
		t.Error("ping-pong latency falling with size passed")
	}
	if _, err := checkRate(bench.RateResult{Pairs: ratePairs, Messages: ratePairs*5 - 1, Elapsed: 1, Events: 1}, 5); err == nil {
		t.Error("message-rate cell missing a message passed")
	}
	cfg := kv.DefaultConfig(1)
	good := kv.Metrics{Requests: cfg.Clients * cfg.PerClient, Ok: cfg.Clients * cfg.PerClient}
	good.Latencies = make([]float64, good.Ok)
	for i := range good.Latencies {
		good.Latencies[i] = 1
	}
	if _, err := checkKV(good, cfg, true); err != nil {
		t.Fatalf("consistent kv cell rejected: %v", err)
	}
	lagging := good
	lagging.EndLag = 1
	if _, err := checkKV(lagging, cfg, true); err == nil {
		t.Error("fault-free kv cell with replication lag after the drain passed")
	}
	short := good
	short.Ok, short.QuorumFails, short.Latencies = good.Ok-1, 1, good.Latencies[1:]
	if _, err := checkKV(short, cfg, false); err != nil {
		t.Errorf("kv cell with one quorum failure rejected: %v", err)
	}
	short.Latencies = good.Latencies
	if _, err := checkKV(short, cfg, false); err == nil {
		t.Error("kv cell with a latency sample per request but a failure passed")
	}
}

// TestDeterminismCheckCatchesChangedResults runs allreduce passes with
// two seeds: the inputs differ, so every cell of the second pass must be
// flagged as differing from the first.
func TestDeterminismCheckCatchesChangedResults(t *testing.T) {
	tl := &tally{digests: map[string]uint32{}}
	for pass, seed := range []uint64{7, 8} {
		w, err := newWorkload("allreduce", seed, smokeShrink)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runPass(w, &out, "", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := readPass(&out, pass, tl); err != nil {
			t.Fatal(err)
		}
	}
	if tl.failed == 0 || tl.failed != tl.attempted/2 {
		t.Fatalf("seed change flagged %d of %d cells, want every cell of the second pass", tl.failed, tl.attempted)
	}
}

// TestEveryMetricIsEmitted computes the end-to-end and per-layer values
// from real (shrunken) passes and profiles, and checks every metric
// BENCHMARK.json names has a sample, and that the CPU shares sum to 1.
func TestEveryMetricIsEmitted(t *testing.T) {
	dir := t.TempDir()
	tl := &tally{digests: map[string]uint32{}}
	plain := runSmokePass(t, "kvserve", 0, tl, "", "")
	cpu, alloc := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "alloc.pprof")
	prof := runSmokePass(t, "kvserve", 1, tl, cpu, alloc)
	micros, err := runMicros(1, "1ms")
	if err != nil {
		t.Fatal(err)
	}
	layerVals, _, err := perLayerValues([]*passRecord{plain}, []*passRecord{prof}, micros, []string{cpu, alloc})
	if err != nil {
		t.Fatal(err)
	}
	e2eVals := endToEndValues([]*passRecord{plain})
	b := readBenchmarkJSON(t)
	for _, m := range b.EndToEnd {
		if len(e2eVals[m.Name]) == 0 {
			t.Errorf("end-to-end metric %s not emitted", m.Name)
		}
	}
	var sum float64
	for _, m := range b.PerLayer {
		v := layerVals[m.Name]
		if len(v) == 0 || math.IsNaN(v[0]) || math.IsInf(v[0], 0) {
			t.Errorf("per-layer metric %s not emitted (%v)", m.Name, v)
		}
		if len(v) > 0 && strings.HasSuffix(m.Name, ".cpu_share") {
			sum += v[0]
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("CPU shares sum to %v", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}
