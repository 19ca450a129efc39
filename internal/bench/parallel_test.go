package bench

import (
	"reflect"
	"strings"
	"testing"

	"putget/internal/cluster"
)

// TestFaultSweepParallelDeterminism is the headline guarantee of the
// sharded runner: the full faultsweep matrix (every fabric/mode x loss
// cell plus the blackout-recovery CDF) must produce byte-identical output
// whether the cells run on one worker or eight.
func TestFaultSweepParallelDeterminism(t *testing.T) {
	seq := cluster.Default()
	seq.Parallel = 1
	par := cluster.Default()
	par.Parallel = 8

	a := FaultSweep(seq, 42)
	b := FaultSweep(par, 42)
	if a != b {
		t.Fatalf("faultsweep diverged between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "blackout recovery") {
		t.Fatalf("sweep output missing blackout section:\n%s", a)
	}
}

// TestScalingParallelDeterminism covers the scaling experiment's
// determinism on a 128-rank slice of it: the fat-tree allreduce column
// on both fabrics and algorithms plus the teams sub-table must print
// byte-identical tables for -parallel 1 and -parallel 8. scaling512 is
// the same code at 512 ranks; CI pins its `cmp` (two 512-rank sweeps
// take minutes). Every cell verifies its collective against the
// membership oracle internally, so this also re-proves allreduce
// correctness on both fabrics and the teams paths (split, strided,
// dead-node shrink). It takes ~11 s on a 2-core x86-64 host; it is the
// only tier-1 check that the allreduce cells shard deterministically.
func TestScalingParallelDeterminism(t *testing.T) {
	seq := cluster.Default()
	seq.Parallel = 1
	par := cluster.Default()
	par.Parallel = 8

	a := scalingSlice(seq, 128)
	b := scalingSlice(par, 128)
	if a != b {
		t.Fatalf("scaling slice diverged between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
	for _, want := range []string{"scaling128", "scaling/teams", "dead node 21, shrink + complete", "built nodes"} {
		if !strings.Contains(a, want) {
			t.Fatalf("scaling slice output missing %q section:\n%s", want, a)
		}
	}
}

// TestTeamsTableParallelDeterminism pins the teams sub-table alone.
func TestTeamsTableParallelDeterminism(t *testing.T) {
	seq := cluster.Default()
	seq.Parallel = 1
	par := cluster.Default()
	par.Parallel = 8

	a := teamsTable(seq)
	b := teamsTable(par)
	if a != b {
		t.Fatalf("teams table diverged between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "63 of 64 (torus)") {
		t.Fatalf("teams table missing the shrink row:\n%s", a)
	}
}

// TestTableParallelDeterminism covers the counter-table and ablation
// paths: per-cell engines must leave the merged counters and the
// ablation report bit-identical for any worker count.
func TestTableParallelDeterminism(t *testing.T) {
	seq := cluster.Default()
	seq.Parallel = 1
	par := cluster.Default()
	par.Parallel = 8

	if a, b := Table1(seq), Table1(par); !reflect.DeepEqual(a, b) {
		t.Fatalf("Table1 diverged:\n%+v\n%+v", a, b)
	}
	if a, b := Ablations(seq), Ablations(par); a != b {
		t.Fatalf("Ablations diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestGridSeriesParallelDeterminism exercises the figure grid helper with
// worker counts around the cell count.
func TestGridSeriesParallelDeterminism(t *testing.T) {
	eval := func(si, xi int) float64 { return float64(si*100 + xi) }
	xs := []int{1, 2, 4, 8}
	seriesLabels := []string{"a", "b", "c"}
	var want []Series
	for _, par := range []int{1, 2, 3, 12, 64} {
		p := cluster.Default()
		p.Parallel = par
		got := gridSeries(p, seriesLabels, xs, eval)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel %d: series diverged: %+v vs %+v", par, got, want)
		}
	}
	if want[2].Y[3] != 203 {
		t.Fatalf("grid order wrong: %+v", want)
	}
}
