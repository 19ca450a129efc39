package bench

import (
	"strings"
	"testing"

	"putget/internal/cluster"
	"putget/internal/sim"
)

// TestBreakdownSumsToMeasuredE2E is the experiment's core invariant: the
// per-stage rows partition the measured window exactly, so the table's
// total equals the end-to-end latency (the ISSUE's 1% criterion holds
// with zero slack by construction).
func TestBreakdownSumsToMeasuredE2E(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() breakdownResult
	}{
		{"extoll-gpu", func() breakdownResult { return breakdownExtoll(cluster.Default(), true) }},
		{"extoll-host", func() breakdownResult { return breakdownExtoll(cluster.Default(), false) }},
		{"ib-gpu", func() breakdownResult { return breakdownIB(cluster.Default(), true) }},
		{"ib-host", func() breakdownResult { return breakdownIB(cluster.Default(), false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run()
			if res.E2E <= 0 {
				t.Fatalf("e2e = %v", res.E2E)
			}
			if len(res.Stages) < 4 {
				t.Fatalf("only %d stages attributed: %+v", len(res.Stages), res.Stages)
			}
			var sum sim.Duration
			for _, s := range res.Stages {
				if s.Time < 0 {
					t.Fatalf("negative stage time: %+v", s)
				}
				sum += s.Time
			}
			if sum != res.E2E {
				t.Fatalf("stages sum to %v, measured e2e %v", sum, res.E2E)
			}
		})
	}
}

// TestStageBreakdownParallelDeterminism: the four modes shard over the
// worker pool; the printed report must be byte-identical for any count.
func TestStageBreakdownParallelDeterminism(t *testing.T) {
	seq := cluster.Default()
	seq.Parallel = 1
	par := cluster.Default()
	par.Parallel = 8

	a, b := StageBreakdown(seq), StageBreakdown(par)
	if a != b {
		t.Fatalf("breakdown diverged between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
	for _, stage := range []string{"wr.create", "wqe.post", "dma.fetch", "xmit", "complete", "measured end-to-end"} {
		if !strings.Contains(a, stage) {
			t.Fatalf("report missing stage %q:\n%s", stage, a)
		}
	}
}

// TestExtraExperimentsRegistered: the diagnostics resolve by id but stay
// out of the paper set, so `-experiment all` output is unchanged.
func TestExtraExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"ablations", "breakdown", "crossapi", "kvserve"} {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("%s experiment not resolvable", id)
		}
		for _, r := range Experiments() {
			if r.ID == id {
				t.Fatalf("%s leaked into the paper experiment set", id)
			}
		}
	}
}
