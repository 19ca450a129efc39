package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"putget/internal/stats"
)

// A pass runs a workload's cells once, in a fresh process, and streams
// one record per cell and then one for the pass as JSON lines on stdout.
// If the process dies mid-pass, the cells it reported are the ones that
// ran; the parent charges the crash to the next.

// cellRecord is one cell's report.
type cellRecord struct {
	Name   string `json:"name"`
	Err    string `json:"err,omitempty"`
	Digest uint32 `json:"digest"`
}

// passRecord summarizes one pass. WallS, CPUS and SetupS are host
// seconds scaled to the reference speed (see reference.go), over the
// cells (WallS, CPUS) and the set-up (SetupS); the Host fields are the
// same times as measured. A profiled pass runs no reference and leaves
// the scaled times zero. Model holds the per-layer statistics the pass
// can compute by itself, keyed by metric name.
type passRecord struct {
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	SetupS     float64            `json:"setup_s"`
	HostWallS  float64            `json:"host_wall_s"`
	HostCPUS   float64            `json:"host_cpu_s"`
	HostSetupS float64            `json:"host_setup_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	AllocMB    float64            `json:"alloc_mb"`
	Phases     map[string]float64 `json:"phases"`
	Model      map[string]float64 `json:"model"`
	Spans      []span             `json:"spans"`
}

type record struct {
	Cell *cellRecord `json:"cell,omitempty"`
	Pass *passRecord `json:"pass,omitempty"`
}

// runtimeSample is the process-wide cost counters at one instant.
type runtimeSample struct {
	at          time.Time
	cpu         time.Duration // user + sys, every thread (GC workers too)
	maxRSSKB    int64
	allocBytes  uint64
	allocs      uint64
	gcCycles    uint32
	gcCPU, cpuS float64 // runtime/metrics CPU-class estimates
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(m)
	return runtimeSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB:   ru.Maxrss,
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcCPU:      m[0].Value.Float64(),
		cpuS:       m[1].Value.Float64(),
	}
}

// cost is the counters' growth over one stretch of a pass.
type cost struct {
	wall, cpu          time.Duration
	allocBytes, allocs uint64
	gcCycles           uint32
	gcCPU, cpuS        float64
}

// costOf runs f and returns its cost.
func costOf(f func()) cost {
	a := sampleRuntime()
	f()
	b := sampleRuntime()
	return cost{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocs:     b.allocs - a.allocs,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPU:      b.gcCPU - a.gcCPU,
		cpuS:       b.cpuS - a.cpuS,
	}
}

// runPass runs w once and writes its records to out. A plain pass runs
// a reference slice before every cell and after the last; a profiled
// one (cpuProfile or allocProfile set) runs none, so its profiles cover
// the cells alone.
func runPass(w *workload, out io.Writer, cpuProfile, allocProfile string) error {
	enc := json.NewEncoder(out)
	t := &tracer{origin: time.Now()}
	pass := t.open(0, w.name)
	profiled := cpuProfile != "" || allocProfile != ""
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
	}

	var refs, cells []cost
	var setups []time.Duration // each cell's set-up phase
	phases := map[string]time.Duration{}
	outcomes := make([]outcome, 0, len(w.cells))
	for _, c := range w.cells {
		if !profiled {
			refs = append(refs, costOf(runReference))
		}
		var cr cellRecord
		var o outcome
		dur := map[string]time.Duration{}
		cells = append(cells, costOf(func() { cr, o = runCell(t, pass, c, dur) }))
		setups = append(setups, dur["setup"])
		for k, d := range dur {
			phases[k] += d
		}
		if err := enc.Encode(record{Cell: &cr}); err != nil {
			return err
		}
		if cr.Err == "" {
			outcomes = append(outcomes, o)
		}
	}
	if !profiled {
		refs = append(refs, costOf(runReference))
	}
	rec := &passRecord{Phases: map[string]float64{}, PeakRSSMB: float64(sampleRuntime().maxRSSKB) / 1024}
	if cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if allocProfile != "" {
		if err := writeAllocProfile(allocProfile); err != nil {
			return err
		}
	}

	// The set-up probe runs after the profiles are written, so they
	// cover the cells alone.
	probe := t.open(pass, "setup-probe")
	var probeS float64
	for _, b := range w.builds {
		probeS += float64(b.uses) * timeBuilds(b.build, setupProbeBuilds)
	}
	t.close(probe)
	t.close(pass)

	var sum cost
	for i, c := range cells {
		sum.allocBytes += c.allocBytes
		sum.allocs += c.allocs
		sum.gcCycles += c.gcCycles
		sum.gcCPU += c.gcCPU
		sum.cpuS += c.cpuS
		rec.HostWallS += c.wall.Seconds()
		rec.HostCPUS += c.cpu.Seconds()
		rec.HostSetupS += setups[i].Seconds()
		if !profiled {
			// Cell i ran between reference slices i and i+1.
			wallF := refNominal.Seconds() / ((refs[i].wall + refs[i+1].wall).Seconds() / 2)
			cpuF := refNominal.Seconds() / ((refs[i].cpu + refs[i+1].cpu).Seconds() / 2)
			rec.WallS += c.wall.Seconds() * wallF
			rec.CPUS += c.cpu.Seconds() * cpuF
			rec.SetupS += setups[i].Seconds() * wallF
		}
	}
	if len(w.builds) > 0 {
		rec.HostSetupS = probeS
		if !profiled {
			rec.SetupS = probeS * refNominal.Seconds() / refs[len(refs)-1].wall.Seconds()
		}
	}
	rec.AllocMB = float64(sum.allocBytes) / (1 << 20)
	for name, d := range phases {
		rec.Phases[name] = d.Seconds()
	}
	rec.Model = modelStats(outcomes)
	rec.Model["runtime.allocs"] = float64(sum.allocs)
	rec.Model["runtime.gc_cycles"] = float64(sum.gcCycles)
	if sum.cpuS > 0 {
		rec.Model["runtime.gc_cpu_frac"] = sum.gcCPU / sum.cpuS
	}
	rec.Spans = t.spans
	return enc.Encode(record{Pass: rec})
}

// runCell runs one cell, turning a panic into the cell's error.
func runCell(t *tracer, pass int, c cell, dur map[string]time.Duration) (rec cellRecord, o outcome) {
	rec.Name = c.name
	ph := &phaseClock{t: t, cell: t.open(pass, c.name), dur: dur}
	defer func() {
		if r := recover(); r != nil {
			rec.Err = fmt.Sprintf("panic: %v", r)
		}
		ph.end()
		t.close(ph.cell)
	}()
	o, err := c.run(ph)
	if err != nil {
		rec.Err = err.Error()
		return rec, o
	}
	rec.Digest = fnv32([]byte(o.canon))
	return rec, o
}

// timeBuilds returns the median host seconds of n calls of build.
func timeBuilds(build func(), n int) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		build()
		ds[i] = time.Since(t0).Seconds()
	}
	return quartiles(ds)[1]
}

// writeAllocProfile writes the allocation profile (alloc_space) after a
// GC, so every allocation made so far is in it.
func writeAllocProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("write alloc profile: %w", err)
	}
	return f.Close()
}

// modelStats aggregates the cells' virtual results into the model
// statistics: simulated quantities a perf-only change must not move.
func modelStats(outs []outcome) map[string]float64 {
	m := map[string]float64{"model.kv_ok_frac": 0, "model.kv_p50_us": 0, "model.kv_p999_us": 0,
		"kv.retries": 0, "kv.timeouts": 0, "kv.handoffs": 0, "topo.max_depth": 0}
	h := fnv.New32a()
	var virt, allreduce float64
	var lat []float64
	var ok, reqs int
	for _, o := range outs {
		io.WriteString(h, o.canon)
		m["sim.events"] += float64(o.events)
		virt += o.virt.Microseconds()
		allreduce += o.allreduce.Microseconds()
		m["model.gpu_instr"] += float64(o.gpuInstr)
		if o.kv != nil {
			lat = append(lat, o.kv.Latencies...)
			ok += o.kv.Ok
			reqs += o.kv.Requests
			m["kv.retries"] += float64(o.kv.Retries)
			m["kv.timeouts"] += float64(o.kv.Timeouts)
			m["kv.handoffs"] += float64(o.kv.Handoffs)
		}
		if d := float64(o.maxDepth); d > m["topo.max_depth"] {
			m["topo.max_depth"] = d
		}
		m["cluster.built_nodes"] += float64(o.built)
		m["shmem.conns"] += float64(o.conns)
	}
	m["model.virt_us"] = virt
	m["model.allreduce_us"] = allreduce
	m["model.digest"] = float64(h.Sum32())
	if reqs > 0 {
		m["model.kv_ok_frac"] = float64(ok) / float64(reqs)
		p := stats.PercentileMulti(lat, 50, 99.9)
		m["model.kv_p50_us"], m["model.kv_p999_us"] = p[0], p[1]
	}
	return m
}
