package shmem

import (
	"fmt"
	"sort"

	"putget/internal/gpusim"
)

// Team is an ordered subset of a World's ranks — SHMEM's communicator.
// Every collective in this library is planned against a team; the World
// itself is just the root team spanning all ranks. Teams are cheap to
// create: nothing (PEs, connections, barrier flags) is materialized
// until the team is first used by Run or a collective plan, so carving
// many views out of a large world costs only the rank tables.
//
// A team translates between two rank spaces: the world rank (the node
// index in the cluster) and the team rank (position in this team's
// member list). Collectives and barriers run entirely in team-rank
// space, so the same algorithm serves the root team, a split half, a
// strided grid, or a team shrunk around a dead node.
type Team struct {
	w     *World
	label string
	ranks []int       // team rank -> world rank
	idx   map[int]int // world rank -> team rank

	// Dissemination-barrier state, materialized by ensure(): a
	// ceil(log2 size)-round flag array in the symmetric heap (two
	// 8-byte parity slots per round) and per-member epoch counters.
	// Each team owns its own flag block, so overlapping teams on one
	// PE never share barrier state.
	built   bool
	rounds  int
	dissOff uint64
	seqs    []uint64 // per-team-rank barrier epoch
}

// Root returns the team spanning every rank of the world.
func (w *World) Root() *Team { return w.root }

// newTeam validates the member list and builds the rank tables.
func (w *World) newTeam(label string, ranks []int) *Team {
	if len(ranks) == 0 {
		panic(fmt.Sprintf("shmem: team %q has no members", label))
	}
	t := &Team{w: w, label: label, ranks: ranks, idx: make(map[int]int, len(ranks))}
	for tr, wr := range ranks {
		if wr < 0 || wr >= w.n {
			panic(fmt.Sprintf("shmem: team %q member %d out of range (world size %d)", label, wr, w.n))
		}
		if prev, dup := t.idx[wr]; dup {
			panic(fmt.Sprintf("shmem: team %q lists world rank %d twice (team ranks %d and %d)", label, wr, prev, tr))
		}
		t.idx[wr] = tr
	}
	return t
}

// Size returns the team's member count.
func (t *Team) Size() int { return len(t.ranks) }

// Label returns the team's diagnostic name.
func (t *Team) Label() string { return t.label }

// WorldRank translates a team rank to its world rank.
func (t *Team) WorldRank(tr int) int {
	if tr < 0 || tr >= len(t.ranks) {
		panic(fmt.Sprintf("shmem: team %q rank %d out of range (size %d)", t.label, tr, len(t.ranks)))
	}
	return t.ranks[tr]
}

// TeamRank translates a world rank to this team's rank space; ok is
// false when the world rank is not a member.
func (t *Team) TeamRank(worldRank int) (tr int, ok bool) {
	tr, ok = t.idx[worldRank]
	return tr, ok
}

// PE returns the member at team rank tr, materializing it on first use.
func (t *Team) PE(tr int) *PE { return t.w.PE(t.WorldRank(tr)) }

// rankOf is the device-side translation: which team rank is this PE?
func (t *Team) rankOf(pe *PE) int {
	tr, ok := t.idx[pe.Rank]
	if !ok {
		panic(fmt.Sprintf("shmem: PE %d is not a member of team %q", pe.Rank, t.label))
	}
	return tr
}

// Split partitions the team by color, shmem_team_split_color-style:
// members with the same color form one new team, ordered by (key, old
// team rank); a negative color opts the member out of every new team.
// colors and keys are indexed by team rank and must match the team
// size. The returned teams are ordered by ascending color.
func (t *Team) Split(colors, keys []int) []*Team {
	if len(colors) != len(t.ranks) || len(keys) != len(t.ranks) {
		panic(fmt.Sprintf("shmem: Split on team %q (size %d) needs %d colors and keys, got %d and %d",
			t.label, len(t.ranks), len(t.ranks), len(colors), len(keys)))
	}
	type member struct{ key, tr int }
	groups := make(map[int][]member)
	for tr, c := range colors {
		if c < 0 {
			continue
		}
		groups[c] = append(groups[c], member{keys[tr], tr})
	}
	order := make([]int, 0, len(groups))
	for c := range groups {
		order = append(order, c)
	}
	sort.Ints(order)
	teams := make([]*Team, 0, len(order))
	for _, c := range order {
		ms := groups[c]
		sort.SliceStable(ms, func(i, j int) bool {
			if ms[i].key != ms[j].key {
				return ms[i].key < ms[j].key
			}
			return ms[i].tr < ms[j].tr
		})
		ranks := make([]int, len(ms))
		for i, m := range ms {
			ranks[i] = t.ranks[m.tr]
		}
		teams = append(teams, t.w.newTeam(fmt.Sprintf("%s/color%d", t.label, c), ranks))
	}
	return teams
}

// Strided carves out the members at team ranks start, start+stride,
// ... (size of them), shmem_team_split_strided-style.
func (t *Team) Strided(start, stride, size int) *Team {
	if start < 0 || stride < 1 || size < 1 {
		panic(fmt.Sprintf("shmem: Strided(start=%d, stride=%d, size=%d) on team %q: need start >= 0, stride >= 1, size >= 1",
			start, stride, size, t.label))
	}
	last := start + (size-1)*stride
	if last >= len(t.ranks) {
		panic(fmt.Sprintf("shmem: Strided(start=%d, stride=%d, size=%d) on team %q overruns team size %d",
			start, stride, size, t.label, len(t.ranks)))
	}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = t.ranks[start+i*stride]
	}
	return t.w.newTeam(fmt.Sprintf("%s/strided(%d,%d,%d)", t.label, start, stride, size), ranks)
}

// Without re-forms the team with the given world ranks removed — the
// fault-resilience primitive: a job whose node died shrinks its team
// around the hole and re-plans the collective on the survivors. The
// surviving members keep their relative order; their team ranks are
// renumbered densely. Panics if a listed rank is not a member or if
// nothing would survive.
func (t *Team) Without(worldRanks ...int) *Team {
	drop := make(map[int]bool, len(worldRanks))
	for _, wr := range worldRanks {
		if _, ok := t.idx[wr]; !ok {
			panic(fmt.Sprintf("shmem: Without(%d) on team %q: world rank %d is not a member", wr, t.label, wr))
		}
		drop[wr] = true
	}
	ranks := make([]int, 0, len(t.ranks)-len(drop))
	for _, wr := range t.ranks {
		if !drop[wr] {
			ranks = append(ranks, wr)
		}
	}
	return t.w.newTeam(fmt.Sprintf("%s/without%v", t.label, worldRanks), ranks)
}

// ensure materializes the team's barrier plumbing: symmetric flag space
// for the dissemination rounds and connections between every barrier
// pair. Host-side only (it allocates and connects); Run and every
// collective plan constructor call it, so device code always finds the
// team ready.
func (t *Team) ensure() {
	if t.built {
		return
	}
	size := len(t.ranks)
	t.rounds = 0
	for 1<<t.rounds < size {
		t.rounds++
	}
	// Two 8-byte parity slots per round, as in the world barrier: epoch
	// values alternate slots so a fast peer's round k+1 write cannot be
	// confused with a slow peer's round k value from the last epoch.
	t.dissOff = t.w.Malloc(uint64(16 * t.rounds))
	t.seqs = make([]uint64, size)
	for k := 0; k < t.rounds; k++ {
		for r := 0; r < size; r++ {
			t.w.Connect(t.ranks[r], t.ranks[(r+(1<<k))%size])
		}
	}
	t.built = true
}

// Barrier synchronizes the team's members with a dissemination barrier
// in team-rank space: ceil(log2 size) rounds, each an immediate put of
// the epoch to rank (tr + 2^k) mod size followed by a device-memory
// poll for the matching epoch from rank (tr - 2^k) mod size.
func (t *Team) Barrier(pe *PE, w *gpusim.Warp) {
	if !t.built {
		panic(fmt.Sprintf("shmem: team %q used before materialization; Team.Run and collective plans call ensure() host-side", t.label))
	}
	tr := t.rankOf(pe)
	t.seqs[tr]++
	seq := t.seqs[tr]
	par := uint64(8 * (seq & 1))
	size := len(t.ranks)
	for k := 0; k < t.rounds; k++ {
		peer := t.ranks[(tr+(1<<k))%size]
		slot := t.dissOff + uint64(16*k) + par
		pe.ep(peer).DevPutImm(w, seq, t.w.regions[peer], slot, 8, 0)
		pe.WaitUntil(w, slot, seq)
	}
}

// Run launches body on every member of the team (single block, 32
// threads, as World.Run) and drives the simulation until all complete.
// Only member nodes are materialized — on a big world, running a small
// team builds exactly the small team's slice of the machine.
func (t *Team) Run(body func(pe *PE, warp *gpusim.Warp)) {
	t.ensure()
	pes := make([]*PE, len(t.ranks))
	for i, wr := range t.ranks {
		pes[i] = t.w.PE(wr)
	}
	t.w.launch(pes, body)
}
