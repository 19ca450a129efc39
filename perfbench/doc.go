// Command perfbench is the simulator's benchmark. It measures what the
// simulator costs on the host clock (wall time, CPU, set-up time, memory,
// allocation) on four workloads, checks every simulated result, and
// breaks the cost down by layer. Simulated (virtual) time is the paper's
// subject; this command measures the host time spent producing it.
//
//	bash perfbench/run.sh --workload pair-gpu --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module into .bench_build/ and runs it. The module
// is a nested one that imports the simulator through a replace of ../,
// so the repository's own build and tests do not include it; its tests
// run with `go test` inside this directory.
//
// A run repeats passes of one workload until --seconds have elapsed
// (three passes at least). Each pass re-executes the binary as a fresh
// child process. The child runs the workload's cells one after another,
// each on its own engine, at the default GOMAXPROCS (the host's CPUs).
// Every metric a run prints is the median over its passes. The lines
// before the last print each metric with its unit, quartiles and sample
// count. The last line is one JSON object: correct, the cells attempted
// and failed, and the metrics. A cell fails if it panics, fails its
// oracle, or gives other virtual results than it gave in the run's first
// pass; the run then exits 1.
//
// # Workloads
//
// The benchmark is a closed loop of one: each cell starts when the
// previous one returns. The seed drives kvserve's Zipf keys, arrival
// gaps and fault injectors, and the allreduce input words. The pair
// grids are fixed inputs.
//
//   - pair-gpu: the GPU-controlled paper cells (Fig. 1a/2/4a/5, Table I).
//     Ping-pong on EXTOLL dev2dev-direct and pollOnGPU and on IB bufOnGPU
//     and bufOnHost at 4 B, 4 KiB and 64 KiB x 500 exchanges; message rate
//     with dev2dev-blocks and dev2dev-kernels, 32 pairs x 250 messages,
//     on both fabrics. It drives warps, PCIe, the NICs and wire.Link, and
//     GPU polls of system and device memory. It has no host polling, no
//     topo and no kv, so poll elision and kv changes must not move it.
//   - pair-host: the same fabrics with the CPU in the control path.
//     Ping-pong hostControlled and assisted at the same sizes x 250
//     exchanges; message rate hostControlled and assisted, 32 x 250.
//     Its events are mostly host polls of host RAM and proc handoffs,
//     so it is where poll elision and goroutine-free procs must show.
//   - kvserve: kv.DefaultConfig(seed) with 400 requests per client (4
//     open-loop Zipf clients at a 10 us mean gap in virtual time, 1600
//     requests per cell) on both fabrics under the four kv.DefaultPlans
//     fault plans, each cell's fault seed derived as kv.Sweep derives
//     it. It is the only workload on kv, the fault injector, the
//     reliability protocols and cancellable timers, and its 12800
//     requests leave 12 samples beyond the P99.9.
//   - allreduce: a verified 128-rank allreduce of 128 words as {EXTOLL
//     fat-tree, IB 3D torus} x {ring, recursive doubling}. It is the
//     only workload on topo, shmem and lazy cluster construction, with a
//     ~300 MB working set; it bypasses wire.Link and host polling.
//
// Oracles: bench.PingPong byte-checks the payload where the last ping
// is unmodified, and the ping-pong half RTT may not fall as the message
// grows; a message-rate cell must deliver pairs x messages; a kv cell
// must account every request as served or a quorum failure and serve
// 99%, and a fault-free kv cell must end with zero replication lag;
// every rank must hold the exact sums of the seeded allreduce inputs.
//
// # End-to-end metrics (--trace 0)
//
// Per pass: wall_s (host time of the cells), cpu_s (user + sys of the
// child over the cells, GC workers included), setup_s, peak_rss_mb (the
// child's max RSS) and alloc_mb (bytes the cells allocate). setup_s is,
// for the pair and kvserve workloads, whose builds happen inside
// bench.PingPong and kv.Run, the median of 20 builds of each testbed
// kind (cluster.NewExtollPair or NewIBPair plus transport.New) times the
// builds a pass uses; for allreduce it is the timed NewWorldN + Malloc +
// NewAllReduce + input seeding of every cell. Failed cells are reported
// as the JSON's failed count, not as a metric: their rate is zero on a
// correct run.
//
// The three times are scaled to a reference speed. On shared hosts the
// speed of this kind of code drifts by tens of percent over minutes, so
// raw medians of two sets of runs disagree by more than any useful
// bound. A plain pass therefore times a fixed reference slice of Go work
// (goroutine handoffs, a heap, allocations; reference.go) before every
// cell and after the last, and multiplies each cell's time by the
// nominal slice time over the mean of the two slices around it. On the
// host the benchmark was sized on, scaled and measured times agree at
// its quiet times. A change to the simulator moves the scaled times as
// it moves the measured ones; only the host's speed cancels. The lines
// host_wall_s, host_cpu_s and host_setup_s print the times as measured.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first runs the microbenchmarks, then alternates plain and
// profiled passes. Profiled passes run under runtime/pprof CPU and
// alloc-space profiling; their profiles, the layer table and the spans
// (set-up / sim / verify per cell, kept in memory and written when the
// run ends) go to .bench_build/trace/. Each metric below names the
// end-to-end metric and workload it should move.
//
//   - sim: sim.events (exact), sim.ns_per_event, sim.cpu_share,
//     sim.alloc_share and the engine micros sim.schedule/timer/handoff
//     (_ns, _allocs) move wall_s on every workload. Poll elision lowers
//     sim.events on pair-host and kvserve only; sim.events is not an
//     end-to-end metric because eliding cheap events can lower events/s
//     while wall_s improves.
//   - runtime: runtime.cpu_share, runtime.handoff_share (channel
//     send/receive, park/ready, the scheduler) and runtime.stack_share
//     (stack growth and the frame walking it does) move wall_s on
//     pair-host and kvserve, with their many short procs and polls.
//     runtime.gc_cpu_frac, runtime.allocs, runtime.allocs_per_event and
//     runtime.gc_cycles move cpu_s and alloc_mb, most on allreduce.
//   - Model packages: <pkg>.cpu_share and <pkg>.alloc_share for gpusim,
//     pcie, extoll, ibsim, wire, topo, hostsim, memspace, transport,
//     core, shmem, kv, cluster, faults and bench, plus other (the
//     standard library, this command and the remaining internal
//     packages). gpusim, pcie and topo allocation shares move alloc_mb
//     and wall_s on allreduce and pair-gpu; topo moves only on
//     allreduce, wire only on the pair workloads and kvserve, kv only on
//     kvserve, hostsim on pair-host and kvserve.
//   - Micro (host ns/op and allocs/op of public calls, median of 3
//     testing.Benchmark runs of ~50 ms): memspace.read_u64, an 8-byte
//     pcie.posted_write, hostsim.read (one host poll iteration),
//     gpusim.st_global, wire.send, topo.send (leaf, spine, leaf on a
//     16-node fat-tree), extoll.put and ibsim.put (one 64 B HostPut to
//     its local completion) and cluster.build_1024 (ms per lazy build).
//   - Model statistics, which a perf-only change must leave unchanged:
//     model.virt_us, model.digest (FNV-32 of every virtual result of the
//     pass), model.kv_p50_us, model.kv_p999_us, model.kv_ok_frac,
//     model.gpu_instr, model.allreduce_us, kv.retries, kv.timeouts,
//     kv.handoffs, topo.max_depth, cluster.built_nodes and shmem.conns.
//     Their unit virt_us is simulated microseconds.
//   - Phases: phase.setup_s, phase.sim_s and phase.verify_s, host
//     seconds as measured, and trace.overhead_frac, the profiled passes'
//     median host wall time over the plain passes' minus 1.
//
// # Reading the layer table
//
// The fold decodes the profiles with a small protobuf reader, so it
// needs no `go tool pprof`. CPU samples are charged to the package of
// the flat (self) frame, so Go runtime work (channel handoffs,
// scheduling, stack growth, GC, malloc) is the runtime's row and its
// handoff and stack sub-rows; the cpu column sums to 100%. Allocation
// samples are charged to the first frame outside the runtime, so
// growslice or a goroutine's stack counts against the model code that
// asked. A layer's cpu share is the time its own code runs; the runtime
// work it causes (the handoffs its procs make, the GC its allocations
// drive) shows in the runtime rows. `perfbench -fold a.pprof,b.pprof`
// prints the same table for any CPU or allocation profile, for example
// one written by `go test -cpuprofile`.
//
// # Measured spreads
//
// The spread of a metric is the interquartile range of 10 runs (seeds
// 1000-1009, --seconds 20) over their median. Two such sets, an hour
// apart on a shared 2-core 2.1 GHz x86-64 VM with go1.24, gave (set 1 /
// set 2, in percent):
//
//	workload   wall_s    cpu_s     setup_s    peak_rss_mb alloc_mb  host_wall_s
//	pair-gpu   2.1/1.8   2.1/2.0    8.7/5.0   2.2/1.0     0.0/0.0    7.7/9.3
//	pair-host  3.3/4.3   3.2/4.0   11.2/7.7   2.1/2.1     0.0/0.0   37.2/8.5
//	kvserve    3.3/3.0   5.0/3.0   12.0/11.7  2.1/2.8     1.1/1.1   21.6/7.4
//	allreduce  5.7/5.9   4.4/6.5   11.6/7.4   3.2/2.2     0.0/0.0   15.6/16.4
//
// The second set's wall_s medians moved by +0.5%, -0.3%, +2.6% and +6.9%
// from the first. The bounds in BENCHMARK.json (wall_s and cpu_s 0.2,
// setup_s 0.25, peak_rss_mb 0.15, alloc_mb 0.05) keep every spread but
// setup_s's below a third of its bound; the unscaled host_wall_s column
// shows why the times are scaled. alloc_mb moves only with the seed, on
// kvserve; sim.events and the model statistics repeat exactly for a seed.
package main
