package shmem

import (
	"fmt"
	"strings"
	"testing"

	"putget/internal/gpusim"
	"putget/internal/topo"
	"putget/internal/transport"
)

// seedTeam writes the world-rank pattern (element i = wr+i+1) on every
// member; oracleCheck verifies each member holds the sums over exactly
// the team's membership — element i = size*(i+1) + sum(world ranks).
func seedTeam(t *testing.T, tm *Team, vec uint64, words int) {
	t.Helper()
	for tr := 0; tr < tm.Size(); tr++ {
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(tm.WorldRank(tr) + i + 1)
		}
		hostWriteU64s(t, tm.PE(tr), vec, vals)
	}
}

func oracleCheck(t *testing.T, tm *Team, vec uint64, words int) {
	t.Helper()
	rankSum := 0
	for tr := 0; tr < tm.Size(); tr++ {
		rankSum += tm.WorldRank(tr)
	}
	for tr := 0; tr < tm.Size(); tr++ {
		got := hostReadU64s(t, tm.PE(tr), vec, words)
		for i := range got {
			want := uint64(tm.Size()*(i+1) + rankSum)
			if got[i] != want {
				t.Fatalf("team %q rank %d element %d = %d, want %d", tm.Label(), tr, i, got[i], want)
			}
		}
	}
}

func TestTeamSplitRankTranslation(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 12)
	defer w.Shutdown()
	root := w.Root()
	// Three colors by modulo; keys reverse the world order inside each
	// color, and rank 7 opts out with a negative color.
	colors := make([]int, 12)
	keys := make([]int, 12)
	for r := range colors {
		colors[r] = r % 3
		keys[r] = -r
	}
	colors[7] = -1
	teams := root.Split(colors, keys)
	if len(teams) != 3 {
		t.Fatalf("got %d teams, want 3", len(teams))
	}
	// Color 1 members are 1, 4, 7, 10 minus the opted-out 7; reversed by
	// key: 10, 4, 1.
	want := []int{10, 4, 1}
	tm := teams[1]
	if tm.Size() != len(want) {
		t.Fatalf("color-1 team size = %d, want %d", tm.Size(), len(want))
	}
	for tr, wr := range want {
		if got := tm.WorldRank(tr); got != wr {
			t.Fatalf("WorldRank(%d) = %d, want %d", tr, got, wr)
		}
		back, ok := tm.TeamRank(wr)
		if !ok || back != tr {
			t.Fatalf("TeamRank(%d) = %d, %v; want %d, true", wr, back, ok, tr)
		}
	}
	if _, ok := tm.TeamRank(7); ok {
		t.Fatal("opted-out world rank 7 resolved to a team rank")
	}
	if _, ok := tm.TeamRank(0); ok {
		t.Fatal("color-0 member resolved inside the color-1 team")
	}
}

func TestTeamStridedRoundTrip(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 16)
	defer w.Shutdown()
	tm := w.Root().Strided(1, 3, 5) // world ranks 1, 4, 7, 10, 13
	for tr := 0; tr < 5; tr++ {
		wr := 1 + 3*tr
		if got := tm.WorldRank(tr); got != wr {
			t.Fatalf("WorldRank(%d) = %d, want %d", tr, got, wr)
		}
		back, ok := tm.TeamRank(wr)
		if !ok || back != tr {
			t.Fatalf("TeamRank(%d) = %d, %v; want %d, true", wr, back, ok, tr)
		}
	}
	// Strided of strided composes in team-rank space: every other member.
	sub := tm.Strided(0, 2, 3) // world ranks 1, 7, 13
	for tr, wr := range []int{1, 7, 13} {
		if got := sub.WorldRank(tr); got != wr {
			t.Fatalf("sub WorldRank(%d) = %d, want %d", tr, got, wr)
		}
	}
	// Out-of-range stride must fail loudly, not wrap.
	defer func() {
		if recover() == nil {
			t.Fatal("overrunning Strided did not panic")
		}
	}()
	tm.Strided(0, 4, 3)
}

func TestTeamOneRankDegenerate(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 8)
	defer w.Shutdown()
	tm := w.Root().Strided(5, 1, 1)
	vec := w.Malloc(8 * 4)
	plan := tm.NewAllReduce(RecursiveDoubling, vec, 4)
	seedTeam(t, tm, vec, 4)
	ran := false
	tm.Run(func(pe *PE, warp *gpusim.Warp) {
		if pe.Rank != 5 {
			t.Errorf("degenerate team ran on rank %d", pe.Rank)
		}
		ran = true
		plan.Run(pe, warp)
		tm.Barrier(pe, warp) // 0-round barrier must be a no-op, not a hang
	})
	if !ran {
		t.Fatal("kernel did not run")
	}
	oracleCheck(t, tm, vec, 4) // sum over {5} = identity
	if got := w.CL.Built(); got != 1 {
		t.Fatalf("built %d nodes for a 1-rank team, want 1", got)
	}
}

// Overlapping teams on one PE: the same rank belongs to the root team
// and to a sub-team, and runs both teams' collectives in one kernel.
// Each team owns distinct barrier flags and staging, so the epochs
// cannot cross.
func TestTeamOverlappingMembership(t *testing.T) {
	const n = 8
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, n)
	defer w.Shutdown()
	root := w.Root()
	evens := root.Strided(0, 2, 4)
	vecAll := w.Malloc(8 * 4)
	vecEven := w.Malloc(8 * 4)
	planAll := root.NewAllReduce(RecursiveDoubling, vecAll, 4)
	planEven := evens.NewAllReduce(RecursiveDoubling, vecEven, 4)
	seedTeam(t, root, vecAll, 4)
	seedTeam(t, evens, vecEven, 4)
	w.Run(func(pe *PE, warp *gpusim.Warp) {
		planAll.Run(pe, warp)
		if _, ok := evens.TeamRank(pe.Rank); ok {
			planEven.Run(pe, warp)
		}
		pe.BarrierAll(warp)
	})
	oracleCheck(t, root, vecAll, 4)
	oracleCheck(t, evens, vecEven, 4)
}

func TestTeamWithoutShrinkCompletes(t *testing.T) {
	// A 3x3x3 torus with node 13 (the center) dead: the full-machine
	// collective is impossible, but the shrunk 26-rank team must route
	// around the hole and produce sums over exactly the survivors.
	const n = 27
	spec := topo.Spec{Kind: topo.Torus3D, DimX: 3, DimY: 3, DimZ: 3,
		Routing: topo.Adaptive, DownNodes: []int{13}}
	w := newTestWorldN(transport.KindExtoll, spec, n)
	defer w.Shutdown()
	team := w.Root().Without(13)
	if team.Size() != 26 {
		t.Fatalf("team size = %d, want 26", team.Size())
	}
	if _, ok := team.TeamRank(13); ok {
		t.Fatal("dead rank still resolves in the shrunk team")
	}
	// Survivor order is preserved and renumbered densely.
	if wr := team.WorldRank(13); wr != 14 {
		t.Fatalf("team rank 13 = world rank %d, want 14", wr)
	}
	vec := w.Malloc(8 * 4)
	plan := team.NewAllReduce(RecursiveDoubling, vec, 4) // 26: non-power-of-two
	seedTeam(t, team, vec, 4)
	team.Run(func(pe *PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	oracleCheck(t, team, vec, 4)
	if got := w.CL.Built(); got != 26 {
		t.Fatalf("built %d nodes, want 26 (the dead node must never materialize)", got)
	}
}

func TestTeamWithoutValidation(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 4)
	defer w.Shutdown()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Without of a non-member did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "not a member") {
			t.Fatalf("panic %v does not explain the non-membership", r)
		}
	}()
	w.Root().Without(2).Without(2)
}

// Lazy construction end to end: building a world touches no nodes; a
// sub-team's plan and run touch only its members and wire only its
// connection graph.
func TestTeamLazyBuildCounts(t *testing.T) {
	const n = 32
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, n)
	defer w.Shutdown()
	if got := w.CL.Built(); got != 0 {
		t.Fatalf("fresh world built %d nodes, want 0", got)
	}
	team := w.Root().Strided(0, 4, 8)
	if got := w.CL.Built(); got != 0 {
		t.Fatalf("team creation built %d nodes, want 0", got)
	}
	vec := w.Malloc(8 * 8)
	plan := team.NewAllReduce(Ring, vec, 8)
	if got := w.CL.Built(); got != 8 {
		t.Fatalf("plan built %d nodes, want the team's 8", got)
	}
	seedTeam(t, team, vec, 8)
	team.Run(func(pe *PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	oracleCheck(t, team, vec, 8)
	if got := w.CL.Built(); got != 8 {
		t.Fatalf("run built %d nodes, want 8", got)
	}
	// 8-member team: ring neighbours + 3 dissemination rounds, all
	// within the membership — never more pairs than the full mesh of 8.
	if got := w.Connections(); got > 28 {
		t.Fatalf("wired %d pairs, more than the team's full mesh (28)", got)
	}
}

func TestTeamMisuse(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 6)
	defer w.Shutdown()
	team := w.Root().Strided(0, 1, 3)
	team.ensure()
	outsider := w.PE(5)
	mustPanicContaining := func(name, frag string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			if !strings.Contains(fmt.Sprint(r), frag) {
				t.Fatalf("%s: panic %v missing %q", name, r, frag)
			}
		}()
		f()
	}
	mustPanicContaining("foreign barrier", "not a member", func() {
		team.Barrier(outsider, nil)
	})
	mustPanicContaining("unmaterialized barrier", "before materialization", func() {
		w.Root().Barrier(w.PE(0), nil)
	})
	mustPanicContaining("empty split", "no members", func() {
		w.newTeam("empty", nil)
	})
	mustPanicContaining("duplicate member", "twice", func() {
		w.newTeam("dup", []int{1, 2, 1})
	})
}

// TestTeamConnectAllocs guards the lazy path from an empty 64-rank world
// to a wired 16-rank strided ring on allocs/op: only the team's members
// may be built and connected. The ceiling is 1.15x the measured count.
func TestTeamConnectAllocs(t *testing.T) {
	p := clusterParams()
	p.ExtPorts = 72
	p.ExtNotifEntries = 128
	got := testing.AllocsPerRun(1, func() {
		w := NewWorldN(transport.KindExtoll, topo.Spec{Kind: topo.FatTree}, 64, p, 1<<20)
		team := w.Root().Strided(0, 4, 16)
		team.NewAllReduce(Ring, w.Malloc(8*16), 16)
		w.Shutdown()
	})
	if limit := 1.15 * 4001; got > limit {
		t.Errorf("16-of-64 team connect: %.0f allocs/op, ceiling %.0f", got, limit)
	}
}
