package bench

import (
	"encoding/binary"
	"fmt"
	"strings"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/runner"
	"putget/internal/shmem"
	"putget/internal/sim"
	"putget/internal/topo"
	"putget/internal/transport"
)

// This file is the N-rank scaling experiment: collectives over switched
// fat-tree and 3D-torus fabrics at 16-1024 simulated ranks, on both NIC
// families, plus a teams sub-table (split halves, strided subsets, a
// dead-node shrink-and-complete) and a torus fault sweep (dead cable vs
// dead node). Every cell builds an isolated cluster on its own engine
// and verifies its collective's result before reporting a time, so a
// wrong answer can never hide behind a fast one; cells shard over the
// harness worker pool and merge in fixed grid order, keeping the output
// byte-identical for any -parallel value.

// Scaling axes. Allreduce runs the full 16-1024 range — lazy cluster
// construction and per-team connection graphs keep the 512/1024 builds
// cheap; the simulated collectives themselves dominate. Alltoall still
// stops at 64 ranks because its connection graph is the full mesh — the
// output carries an explicit note rather than silently truncating the
// sweep.
var (
	scalingRanks  = []int{16, 64, 256, 512, 1024}
	allToAllRanks = []int{16, 64}
	scalingTopos  = []topo.Kind{topo.FatTree, topo.Torus3D}
	scalingAlgs   = []shmem.AllReduceAlg{shmem.Ring, shmem.RecursiveDoubling}
)

// scalingWords is the allreduce vector length for an n-rank cell:
// max(256, n) words, so the ring algorithm's equal-chunk requirement
// (count divisible by n) holds at every size while the 16-256 rows keep
// the historical 256-word vector and stay comparable across sweeps.
func scalingWords(n int) int {
	if n < 256 {
		return 256
	}
	return n
}

// scalingParams shrinks per-node footprints (a 1024-node world carries
// 1024 GPUs) and provisions EXTOLL ports for the widest connection graph
// in the sweep: the 64-rank alltoall full mesh needs one port per peer.
func scalingParams(p cluster.Params) cluster.Params {
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	p.ExtPorts = 72
	p.ExtNotifEntries = 128
	return p
}

// scalingWorld builds an n-rank world on the given topology and fabric.
func scalingWorld(p cluster.Params, k transport.Kind, spec topo.Spec, n int) *shmem.World {
	return shmem.NewWorldN(k, spec, n, scalingParams(p), 1<<20)
}

// seedVector writes rank r's element i = r+i+1 at offset vec on all PEs.
func seedVector(w *shmem.World, vec uint64, words int) {
	buf := make([]byte, 8*words)
	for r := 0; r < w.N(); r++ {
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(r+i+1))
		}
		if err := w.PE(r).HostWrite(vec, buf); err != nil {
			panic(err)
		}
	}
}

// checkReduced verifies every rank holds the global sums of the seed
// pattern: element i = n*(i+1) + n*(n-1)/2.
func checkReduced(w *shmem.World, vec uint64, words int, label string) {
	n := w.N()
	buf := make([]byte, 8*words)
	for r := 0; r < n; r++ {
		if err := w.PE(r).HostRead(vec, buf); err != nil {
			panic(err)
		}
		for i := 0; i < words; i++ {
			want := uint64(n*(i+1) + n*(n-1)/2)
			if got := binary.LittleEndian.Uint64(buf[8*i:]); got != want {
				panic(fmt.Sprintf("bench: %s: rank %d element %d = %d, want %d", label, r, i, got, want))
			}
		}
	}
}

// runAllReduce builds a world, runs one verified allreduce, and returns
// the collective's simulated wall time.
func runAllReduce(p cluster.Params, k transport.Kind, spec topo.Spec, n int, alg shmem.AllReduceAlg) sim.Duration {
	w := scalingWorld(p, k, spec, n)
	defer w.Shutdown()
	words := scalingWords(n)
	vec := w.Malloc(uint64(8 * words))
	plan := w.NewAllReduce(alg, vec, words)
	seedVector(w, vec, words)
	t0 := w.CL.E.Now()
	w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	elapsed := w.CL.E.Now().Sub(t0)
	checkReduced(w, vec, words, fmt.Sprintf("scaling allreduce %s/%s/%s/n=%d", k, alg, spec.Kind, n))
	return elapsed
}

// runAllToAll builds a world, runs one verified alltoall (one
// 256/n-word chunk per destination), and returns the simulated wall
// time.
func runAllToAll(p cluster.Params, k transport.Kind, spec topo.Kind, n int) sim.Duration {
	w := scalingWorld(p, k, topo.Spec{Kind: spec}, n)
	defer w.Shutdown()
	chunkW := scalingWords(n) / n
	src := w.Malloc(uint64(8 * chunkW * n))
	dst := w.Malloc(uint64(8 * chunkW * n))
	plan := w.NewAllToAll(src, dst, 8*chunkW)
	buf := make([]byte, 8*chunkW*n)
	for r := 0; r < n; r++ {
		for d := 0; d < n; d++ {
			for i := 0; i < chunkW; i++ {
				binary.LittleEndian.PutUint64(buf[8*(d*chunkW+i):], uint64(r)<<16|uint64(d)<<8|uint64(i))
			}
		}
		if err := w.PE(r).HostWrite(src, buf); err != nil {
			panic(err)
		}
	}
	t0 := w.CL.E.Now()
	w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	elapsed := w.CL.E.Now().Sub(t0)
	for d := 0; d < n; d++ {
		if err := w.PE(d).HostRead(dst, buf); err != nil {
			panic(err)
		}
		for r := 0; r < n; r++ {
			for i := 0; i < chunkW; i++ {
				want := uint64(r)<<16 | uint64(d)<<8 | uint64(i)
				if got := binary.LittleEndian.Uint64(buf[8*(r*chunkW+i):]); got != want {
					panic(fmt.Sprintf("bench: scaling alltoall %s/%s/n=%d: rank %d slot %d word %d = %#x, want %#x", k, spec, n, d, r, i, got, want))
				}
			}
		}
	}
	return elapsed
}

// allReduceFigure sweeps one fabric's allreduce cells: four series
// (algorithm x topology) over the given rank axis.
func allReduceFigure(p cluster.Params, k transport.Kind, ranks []int) Figure {
	type arSeries struct {
		alg  shmem.AllReduceAlg
		kind topo.Kind
	}
	var cells []arSeries
	var names []string
	for _, alg := range scalingAlgs {
		for _, kind := range scalingTopos {
			cells = append(cells, arSeries{alg, kind})
			names = append(names, fmt.Sprintf("%s/%s", alg, kind))
		}
	}
	return Figure{
		ID:     "scaling/" + k.String(),
		Title:  fmt.Sprintf("%s allreduce, max(256, ranks) x 8B elements", k),
		XLabel: "ranks", YLabel: "completion time [us]",
		Series: gridSeries(p, names, ranks, func(si, xi int) float64 {
			c := cells[si]
			return runAllReduce(p, k, topo.Spec{Kind: c.kind}, ranks[xi], c.alg).Microseconds()
		}),
	}
}

// allToAllFigure sweeps the alltoall cells: four series (topology x
// fabric) over the capped rank axis.
func allToAllFigure(p cluster.Params) Figure {
	type a2aSeries struct {
		k    transport.Kind
		kind topo.Kind
	}
	var cells []a2aSeries
	var names []string
	for _, k := range []transport.Kind{transport.KindExtoll, transport.KindIB} {
		for _, kind := range scalingTopos {
			cells = append(cells, a2aSeries{k, kind})
			names = append(names, fmt.Sprintf("%s/%s", k, kind))
		}
	}
	return Figure{
		ID:     "scaling/alltoall",
		Title:  "alltoall, 256 x 8B elements split across ranks",
		XLabel: "ranks", YLabel: "completion time [us]",
		Series: gridSeries(p, names, allToAllRanks, func(si, xi int) float64 {
			c := cells[si]
			return runAllToAll(p, c.k, c.kind, allToAllRanks[xi]).Microseconds()
		}),
	}
}

// ---- teams sub-table ----

// teamWords is the vector length of every teams-table collective; small
// enough that the table stays cheap, divisible by every team size used
// by a ring plan here.
const teamWords = 256

// seedTeamVector writes the world-rank seed pattern (element i = wr+i+1)
// on every member of the team.
func seedTeamVector(t *shmem.Team, vec uint64, words int) {
	buf := make([]byte, 8*words)
	for tr := 0; tr < t.Size(); tr++ {
		wr := t.WorldRank(tr)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(wr+i+1))
		}
		if err := t.PE(tr).HostWrite(vec, buf); err != nil {
			panic(err)
		}
	}
}

// checkTeamReduced verifies every member holds the sums over exactly the
// team's members: element i = size*(i+1) + sum(world ranks).
func checkTeamReduced(t *shmem.Team, vec uint64, words int, label string) {
	rankSum := 0
	for tr := 0; tr < t.Size(); tr++ {
		rankSum += t.WorldRank(tr)
	}
	buf := make([]byte, 8*words)
	for tr := 0; tr < t.Size(); tr++ {
		if err := t.PE(tr).HostRead(vec, buf); err != nil {
			panic(err)
		}
		for i := 0; i < words; i++ {
			want := uint64(t.Size()*(i+1) + rankSum)
			if got := binary.LittleEndian.Uint64(buf[8*i:]); got != want {
				panic(fmt.Sprintf("bench: %s: team rank %d element %d = %d, want %d", label, tr, i, got, want))
			}
		}
	}
}

// teamRow is one measured teams-table cell.
type teamRow struct {
	label   string
	ranks   string // e.g. "2 x 32 of 64"
	built   int    // nodes materialized (lazy-build cost actually paid)
	conns   int    // rank pairs wired
	elapsed sim.Duration
}

// teamCells enumerates the teams-table scenarios. Each runs in its own
// 64-rank world and verifies its collective against the membership
// oracle before reporting a time.
func teamCells(p cluster.Params) []func() teamRow {
	return []func() teamRow{
		// Two split halves run their allreduces concurrently in one
		// launch: rank r dispatches to its own team's plan, exercising
		// overlapping team state (distinct barriers, flags, staging) in
		// a single simulation.
		func() teamRow {
			w := scalingWorld(p, transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 64)
			defer w.Shutdown()
			root := w.Root()
			colors := make([]int, 64)
			keys := make([]int, 64)
			for r := range colors {
				colors[r] = r / 32
				keys[r] = r
			}
			halves := root.Split(colors, keys)
			vec := w.Malloc(8 * teamWords)
			plans := make(map[int]*shmem.AllReduce, 2) // world rank -> its half's plan; lookup only
			for _, h := range halves {
				plan := h.NewAllReduce(shmem.RecursiveDoubling, vec, teamWords)
				for tr := 0; tr < h.Size(); tr++ {
					plans[h.WorldRank(tr)] = plan
				}
				seedTeamVector(h, vec, teamWords)
			}
			t0 := w.CL.E.Now()
			w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
				plans[pe.Rank].Run(pe, warp)
			})
			elapsed := w.CL.E.Now().Sub(t0)
			for _, h := range halves {
				checkTeamReduced(h, vec, teamWords, "teams split-half allreduce "+h.Label())
			}
			return teamRow{"split halves, concurrent rdouble", "2 x 32 of 64",
				w.CL.Built(), w.Connections(), elapsed}
		},
		// A strided quarter of the machine: only the 16 member nodes are
		// ever materialized — the built column is the lazy-build win.
		func() teamRow {
			w := scalingWorld(p, transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 64)
			defer w.Shutdown()
			team := w.Root().Strided(0, 4, 16)
			vec := w.Malloc(8 * teamWords)
			plan := team.NewAllReduce(shmem.Ring, vec, teamWords)
			seedTeamVector(team, vec, teamWords)
			t0 := w.CL.E.Now()
			team.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
				plan.Run(pe, warp)
			})
			elapsed := w.CL.E.Now().Sub(t0)
			checkTeamReduced(team, vec, teamWords, "teams strided allreduce")
			return teamRow{"strided quarter, ring", "16 of 64 (stride 4)",
				w.CL.Built(), w.Connections(), elapsed}
		},
		// Dead node: torus node 21 is down (its router dies with it). The
		// job shrinks the team around the hole and completes the
		// collective on the 63 survivors — degraded but correct, where
		// PR 8 could only report the blast radius. The dead node is never
		// materialized; recursive doubling's pre/post-fold handles the
		// non-power-of-two survivor count.
		func() teamRow {
			spec := topo.Spec{Kind: topo.Torus3D, Routing: topo.Adaptive, DownNodes: []int{21}}
			w := scalingWorld(p, transport.KindExtoll, spec, 64)
			defer w.Shutdown()
			team := w.Root().Without(21)
			vec := w.Malloc(8 * teamWords)
			plan := team.NewAllReduce(shmem.RecursiveDoubling, vec, teamWords)
			seedTeamVector(team, vec, teamWords)
			t0 := w.CL.E.Now()
			team.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
				plan.Run(pe, warp)
			})
			elapsed := w.CL.E.Now().Sub(t0)
			checkTeamReduced(team, vec, teamWords, "teams dead-node shrink allreduce")
			return teamRow{"dead node 21, shrink + complete", "63 of 64 (torus)",
				w.CL.Built(), w.Connections(), elapsed}
		},
	}
}

// teamsTable runs the teams scenarios (sharded over the worker pool,
// merged in fixed order) and formats the sub-table.
func teamsTable(p cluster.Params) string {
	cells := teamCells(p)
	rows := runner.Map(p.Parallel, cells, func(_ int, f func() teamRow) teamRow {
		return f()
	})
	var b strings.Builder
	fmt.Fprintf(&b, "scaling/teams: team collectives on 64-rank EXTOLL worlds (%d x 8B)\n", teamWords)
	fmt.Fprintf(&b, "%-34s %-20s %12s %12s %14s\n",
		"scenario", "ranks", "built nodes", "conns", "allreduce[us]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-20s %12d %12d %14.4g\n",
			r.label, r.ranks, r.built, r.conns, r.elapsed.Microseconds())
	}
	b.WriteString("(all results oracle-verified against each team's membership; the dead-node\n")
	b.WriteString(" row completes a collective around the hole via Team.Without, and 'built\n")
	b.WriteString(" nodes' counts how much of the machine lazy construction materialized)\n")
	return b.String()
}

// faultCell is one row of the torus fault sweep.
type faultCell struct {
	label   string
	spec    topo.Spec
	allLive bool // a collective spanning every rank can complete
}

// faultRow is the measured outcome of one cell.
type faultRow struct {
	reachable int
	meanHops  float64
	maxHops   int
	elapsed   sim.Duration
	maxDepth  int
	allLive   bool
}

// measureFault probes one fault scenario: graph-level reachability over
// all ordered node pairs, and — when every node is alive — a verified
// 64-rank ring allreduce with the cluster's congestion high-water mark.
func measureFault(p cluster.Params, c faultCell) faultRow {
	const n = 64
	var row faultRow
	row.allLive = c.allLive

	// Reachability and hop counts come from a bare fabric graph: no NICs,
	// no traffic, just the routing tables the cluster would use.
	probe := topo.NewNet[int](sim.NewEngine(), c.spec, n,
		topo.LinkConfig{BytesPerSecond: p.ExtWireBW, Latency: p.ExtWireLat},
		"probe", func(int) int { return 0 })
	hopSum, maxHops := 0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			h := probe.Hops(s, d)
			if h < 0 {
				continue
			}
			row.reachable++
			hopSum += h
			if h > maxHops {
				maxHops = h
			}
		}
	}
	if row.reachable > 0 {
		row.meanHops = float64(hopSum) / float64(row.reachable)
	}
	row.maxHops = maxHops

	if !c.allLive {
		// A collective that spans a dead rank cannot complete; the teams
		// table shows the shrink-and-complete path, and the reachability
		// columns here quantify the blast radius.
		return row
	}
	w := scalingWorld(p, transport.KindExtoll, c.spec, n)
	defer w.Shutdown()
	vec := w.Malloc(8 * teamWords)
	plan := w.NewAllReduce(shmem.Ring, vec, teamWords)
	seedVector(w, vec, teamWords)
	t0 := w.CL.E.Now()
	w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	row.elapsed = w.CL.E.Now().Sub(t0)
	checkReduced(w, vec, teamWords, "fault sweep allreduce "+c.label)
	row.maxDepth = w.CL.ExtNet.MaxDepth()
	return row
}

// faultSweepTable runs the torus fault matrix: {healthy, one dead cable,
// one dead node} x {deterministic, adaptive} at 64 ranks over EXTOLL.
func faultSweepTable(p cluster.Params) string {
	const n = 64
	base := []struct {
		label   string
		links   [][2]int
		nodes   []int
		allLive bool
	}{
		{"healthy", nil, nil, true},
		// Nodes 0 and 1 are +x neighbours on the derived 4x4x4 grid; the
		// dead cable sits directly on the ring allreduce's rank 0 -> 1
		// neighbour traffic, forcing a detour.
		{"dead link 0-1", [][2]int{{0, 1}}, nil, true},
		// An interior node dies and takes its torus router with it (the
		// router rides on the NIC), cutting through-traffic too.
		{"dead node 21", nil, []int{21}, false},
	}
	var cells []faultCell
	for _, b := range base {
		for _, rt := range []topo.Routing{topo.Deterministic, topo.Adaptive} {
			cells = append(cells, faultCell{
				label: fmt.Sprintf("%-14s %-13s", b.label, rt),
				spec: topo.Spec{Kind: topo.Torus3D, Routing: rt,
					DownLinks: b.links, DownNodes: b.nodes},
				allLive: b.allLive,
			})
		}
	}
	rows := runner.Map(p.Parallel, cells, func(_ int, c faultCell) faultRow {
		return measureFault(p, c)
	})

	var b strings.Builder
	fmt.Fprintf(&b, "scaling/faults: 64-rank 4x4x4 torus over EXTOLL, ring allreduce (%d x 8B)\n", teamWords)
	fmt.Fprintf(&b, "%-14s %-13s %12s %10s %9s %14s %10s\n",
		"scenario", "routing", "reach.pairs", "mean hops", "max hops", "allreduce[us]", "max depth")
	for i, c := range cells {
		r := rows[i]
		timeCol, depthCol := "-", "-"
		if c.allLive {
			timeCol = fmt.Sprintf("%.4g", r.elapsed.Microseconds())
			depthCol = fmt.Sprintf("%d", r.maxDepth)
		}
		fmt.Fprintf(&b, "%s %12d %10.3f %9d %14s %10s\n",
			c.label, r.reachable, r.meanHops, r.maxHops, timeCol, depthCol)
	}
	b.WriteString("(dead-node rows: a collective spanning the dead rank cannot complete;\n")
	b.WriteString(" the teams table above shows the same scenario shrinking the team and\n")
	b.WriteString(" finishing on the 63 survivors)\n")
	return b.String()
}

// Scaling is the N-rank scaling experiment: allreduce at 16-1024 ranks
// on both topologies over both fabrics, alltoall at 16-64 ranks, the
// teams sub-table, and the torus fault sweep. Output is byte-identical
// for any -parallel value.
func Scaling(p cluster.Params) string {
	var b strings.Builder
	b.WriteString(allReduceFigure(p, transport.KindExtoll, scalingRanks).Format())
	b.WriteString("\n")
	b.WriteString(allReduceFigure(p, transport.KindIB, scalingRanks).Format())
	b.WriteString("\n")
	b.WriteString(allToAllFigure(p).Format())
	fmt.Fprintf(&b, "note: alltoall capped at %d ranks — its connection graph is the full\n", allToAllRanks[len(allToAllRanks)-1])
	b.WriteString("mesh (1024 ranks would need 523776 node pairs); larger counts are omitted,\n")
	b.WriteString("not sampled.\n\n")
	b.WriteString(teamsTable(p))
	b.WriteString("\n")
	b.WriteString(faultSweepTable(p))
	return b.String()
}

// Scaling512 is the bounded CI smoke of the scaling experiment: the
// 512-rank allreduce column (both algorithms, both fabrics, fat-tree)
// plus the full teams sub-table — enough to exercise 512-rank lazy
// construction and the team paths inside a CI time budget, byte-identical
// for any -parallel value.
func Scaling512(p cluster.Params) string { return scalingSlice(p, 512) }

// scalingSlice is the n-rank fat-tree allreduce column on both fabrics
// and algorithms, followed by the teams sub-table.
func scalingSlice(p cluster.Params, n int) string {
	var b strings.Builder
	type cell struct {
		k   transport.Kind
		alg shmem.AllReduceAlg
	}
	var cells []cell
	for _, k := range []transport.Kind{transport.KindExtoll, transport.KindIB} {
		for _, alg := range scalingAlgs {
			cells = append(cells, cell{k, alg})
		}
	}
	times := runner.Map(p.Parallel, cells, func(_ int, c cell) sim.Duration {
		return runAllReduce(p, c.k, topo.Spec{Kind: topo.FatTree}, n, c.alg)
	})
	fmt.Fprintf(&b, "scaling%d: %d-rank fat-tree allreduce (%d x 8B), verified\n", n, n, scalingWords(n))
	fmt.Fprintf(&b, "%-8s %-8s %14s\n", "fabric", "alg", "allreduce[us]")
	for i, c := range cells {
		fmt.Fprintf(&b, "%-8s %-8s %14.4g\n", c.k, c.alg, times[i].Microseconds())
	}
	b.WriteString("\n")
	b.WriteString(teamsTable(p))
	return b.String()
}
