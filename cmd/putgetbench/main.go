// Command putgetbench regenerates the paper's figures and tables.
//
//	putgetbench -list
//	putgetbench -experiment list              # same listing, flag-style
//	putgetbench -experiment fig1a
//	putgetbench -experiment all
//	putgetbench -experiment all -parallel 8   # shard cells over 8 workers
//	putgetbench -experiment fig2 -asic        # projected EXTOLL ASIC
//	putgetbench -experiment fig1b -no-collapse # disable the P2P anomaly
//	putgetbench -experiment ablations         # the §VI ablation studies
//	putgetbench -experiment kvserve -seed 7   # KV serving SLO table
//
// Experiments are sharded across a worker pool at two levels: each
// requested experiment is one cell of the outer pool, and the sweeps
// inside an experiment (mode x size x fault matrices) shard their own
// points over the same worker budget. Every cell runs an isolated
// simulation engine, and results are merged in a fixed order, so stdout
// is byte-identical for any -parallel value. Progress and timing lines go
// to stderr; a crashing cell reports its failure and fails only itself.
package main

import (
	"flag"
	"fmt"
	"os"

	"putget/internal/bench"
	"putget/internal/cluster"
	"putget/internal/runner"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		experiment = flag.String("experiment", "", "experiment id (fig1a..table2) or 'all'")
		asic       = flag.Bool("asic", false, "use the projected EXTOLL ASIC profile")
		noCollapse = flag.Bool("no-collapse", false, "disable the PCIe P2P read collapse (ablation)")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		seed       = flag.Uint64("seed", 0, "master seed for faultsweep and kvserve (fault streams, KV workload; 0 = default 42)")
		parallel   = flag.Int("parallel", 0, "experiment-harness workers (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()

	if *list || *experiment == "" || *experiment == "list" {
		fmt.Println("available experiments:")
		for _, r := range bench.Experiments() {
			fmt.Printf("  %s\n", r.ID)
		}
		fmt.Println("extra diagnostics (not part of 'all'):")
		for _, r := range bench.ExtraExperiments() {
			fmt.Printf("  %s\n", r.ID)
		}
		if *experiment == "" && !*list {
			os.Exit(2)
		}
		return
	}

	p := cluster.Default()
	if *asic {
		p = cluster.ASIC()
	}
	if *noCollapse {
		p.P2PCollapseOff = true
	}
	p.FaultSeed = *seed
	p.Parallel = *parallel
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "putgetbench: %v\n", err)
		os.Exit(1)
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = nil
		for _, r := range bench.Experiments() {
			ids = append(ids, r.ID)
		}
	}

	// Validate every id (and JSON support) before burning simulation time.
	runners := make([]bench.Runner, len(ids))
	for i, id := range ids {
		r, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "putgetbench: unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		if *jsonOut && r.RunJSON == nil {
			fmt.Fprintf(os.Stderr, "putgetbench: experiment %q has no JSON form\n", id)
			os.Exit(1)
		}
		runners[i] = r
	}

	cells := make([]runner.Cell, len(runners))
	for i, r := range runners {
		r := r
		cells[i] = runner.Cell{Name: r.ID, Run: func() string {
			if *jsonOut {
				return r.RunJSON(p)
			}
			return r.Run(p)
		}}
	}
	results := runner.Run(cells, runner.Options{
		Parallel: *parallel,
		Progress: func(r runner.Result) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "[%s FAILED after %.1fs]\n", r.Name, r.Elapsed.Seconds())
				return
			}
			fmt.Fprintf(os.Stderr, "[%s completed in %.1fs wall time]\n", r.Name, r.Elapsed.Seconds())
		},
	})

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "putgetbench: %s: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Println(r.Output)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "putgetbench: %d/%d experiments failed\n", failed, len(results))
		os.Exit(1)
	}
}
