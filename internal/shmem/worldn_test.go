package shmem

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"putget/internal/cluster"
	"putget/internal/gpusim"
	"putget/internal/topo"
	"putget/internal/transport"
)

// clusterParams keeps per-node footprints small so worlds of dozens of
// ranks stay cheap to build.
func clusterParams() cluster.Params {
	p := cluster.Default()
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	return p
}

func newTestWorldN(k transport.Kind, spec topo.Spec, n int) *World {
	return NewWorldN(k, spec, n, clusterParams(), 1<<20)
}

// hostWriteU64s seeds a symmetric vector on one rank without sim time.
func hostWriteU64s(t *testing.T, pe *PE, off uint64, vals []uint64) {
	t.Helper()
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	if err := pe.HostWrite(off, buf); err != nil {
		t.Fatal(err)
	}
}

func hostReadU64s(t *testing.T, pe *PE, off uint64, n int) []uint64 {
	t.Helper()
	buf := make([]byte, 8*n)
	if err := pe.HostRead(off, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out
}

// The symmetric heap's bump pointer lives on the World (not per PE), so
// rank layouts cannot diverge by construction — a lazily-built rank must
// see exactly the offsets an eager one would have.
func TestMallocSymmetricAcrossLazyBuilds(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.Torus3D}, 4)
	defer w.Shutdown()
	a := w.Malloc(64)
	early := w.PE(1) // built before the second Malloc
	b := w.Malloc(16)
	late := w.PE(2) // built after both
	if a != 0 || b != 64 {
		t.Fatalf("offsets = %d, %d; want 0, 64", a, b)
	}
	if early.Addr(b)-early.heapBase != late.Addr(b)-late.heapBase {
		t.Fatal("symmetric offset differs between early- and late-built ranks")
	}
}

func TestBarrierAllSynchronizes(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		// 5 ranks: a non-power-of-two count exercises the mod-N wrap in the
		// dissemination schedule. The 2-rank pair is TestBarrierSynchronizes.
		w := newTestWorldN(k, topo.Spec{Kind: topo.FatTree}, 5)
		defer w.Shutdown()
		const rounds = 3
		exits := make([][rounds]int64, w.N())
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			for r := 0; r < rounds; r++ {
				// A different straggler every round.
				if pe.Rank == (r*3)%pe.N {
					warp.Proc().Sleep(30_000_000) // 30us
				}
				pe.BarrierAll(warp)
				exits[pe.Rank][r] = int64(warp.Now())
			}
		})
		// Exits lie within one fabric crossing per dissemination round.
		maxSkew := int64(20_000_000 * w.Root().rounds)
		floor := int64(0)
		for r := 0; r < rounds; r++ {
			floor += 30_000_000
			lo, hi := exits[0][r], exits[0][r]
			for rank := range exits {
				if exits[rank][r] < floor {
					t.Fatalf("round %d: rank %d exited at %dps, before the round's straggler arrived (floor %dps)", r, rank, exits[rank][r], floor)
				}
				lo, hi = min(lo, exits[rank][r]), max(hi, exits[rank][r])
			}
			if hi-lo > maxSkew {
				t.Fatalf("round %d barrier exits skewed by %dps (limit %dps)", r, hi-lo, maxSkew)
			}
		}
	})
}

func TestPutToGetFromQuietAll(t *testing.T) {
	// On 6 torus ranks, rank 0 puts to rank 3 while rank 5 gets from it.
	// On the 2-rank Direct pair, rank 0 does both, so its get shares the
	// connection with its still-outstanding puts.
	shapes := []struct {
		kind                   topo.Kind
		n, putter, tgt, getter int
	}{{topo.Torus3D, 6, 0, 3, 5}, {topo.Direct, 2, 0, 1, 0}}
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		for _, sh := range shapes {
			sh := sh
			t.Run(fmt.Sprintf("%v-%d", sh.kind, sh.n), func(t *testing.T) {
				w := newTestWorldN(k, topo.Spec{Kind: sh.kind}, sh.n)
				defer w.Shutdown()
				w.Connect(sh.putter, sh.tgt)
				w.Connect(sh.getter, sh.tgt)
				src := w.Malloc(1024)
				dst := w.Malloc(1024)
				hostWriteU64s(t, w.PE(sh.putter), src, []uint64{11, 22, 33, 44})
				hostWriteU64s(t, w.PE(sh.tgt), src, []uint64{77, 88})
				var landed uint64
				w.Run(func(pe *PE, warp *gpusim.Warp) {
					if pe.Rank == sh.putter {
						pe.PutTo(warp, sh.tgt, dst, src, 32)
						pe.PutImmTo(warp, sh.tgt, dst+32, 0xfeed)
					}
					if pe.Rank == sh.getter {
						pe.GetFrom(warp, sh.tgt, dst, src, 16)
						landed = warp.LdGlobalU64(pe.Addr(dst))
					}
					if pe.Rank == sh.putter {
						pe.QuietAll(warp)
					}
				})
				got := hostReadU64s(t, w.PE(sh.tgt), dst, 5)
				want := []uint64{11, 22, 33, 44, 0xfeed}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rank %d dst[%d] = %#x, want %#x", sh.tgt, i, got[i], want[i])
					}
				}
				if landed != 77 {
					t.Fatalf("rank %d saw %d when GetFrom returned, want 77", sh.getter, landed)
				}
				if got := hostReadU64s(t, w.PE(sh.getter), dst, 2); got[0] != 77 || got[1] != 88 {
					t.Fatalf("rank %d get = %v, want [77 88]", sh.getter, got)
				}
			})
		}
	})
}

// verifyAllReduce seeds rank r's element i with r+i+1, runs the plan
// twice (reuse exercises the epoch/parity machinery), and checks every
// rank holds the doubled global sums.
func verifyAllReduce(t *testing.T, w *World, alg AllReduceAlg, count int) {
	t.Helper()
	n := w.N()
	vec := w.Malloc(uint64(8 * count))
	plan := w.NewAllReduce(alg, vec, count)
	for r := 0; r < n; r++ {
		vals := make([]uint64, count)
		for i := range vals {
			vals[i] = uint64(r + i + 1)
		}
		hostWriteU64s(t, w.PE(r), vec, vals)
	}
	w.Run(func(pe *PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	// sum over ranks of (r+i+1) = n*(i+1) + n(n-1)/2
	want := func(i int) uint64 { return uint64(n*(i+1) + n*(n-1)/2) }
	for r := 0; r < n; r++ {
		got := hostReadU64s(t, w.PE(r), vec, count)
		for i := range got {
			if got[i] != want(i) {
				t.Fatalf("%v: rank %d element %d = %d, want %d", alg, r, i, got[i], want(i))
			}
		}
	}
	// Second invocation on the same plan: vectors now hold the first
	// round's sums, so the result must be n times those.
	w.Run(func(pe *PE, warp *gpusim.Warp) {
		plan.Run(pe, warp)
	})
	for r := 0; r < n; r++ {
		got := hostReadU64s(t, w.PE(r), vec, count)
		for i := range got {
			if got[i] != uint64(n)*want(i) {
				t.Fatalf("%v reuse: rank %d element %d = %d, want %d", alg, r, i, got[i], uint64(n)*want(i))
			}
		}
	}
}

func TestAllReduceSmallRankCounts(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		for _, n := range []int{4, 8, 16} {
			n := n
			t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
				w := newTestWorldN(k, topo.Spec{Kind: topo.Torus3D}, n)
				defer w.Shutdown()
				verifyAllReduce(t, w, Ring, 2*n)
				verifyAllReduce(t, w, RecursiveDoubling, 16)
			})
		}
	})
}

// Non-power-of-two recursive doubling: the pre/post-fold must produce
// correct sums for every survivor-count shape — odd sizes, rem == size/2
// extremes (3, 6, 12), and sizes one away from a power of two (5, 7).
func TestAllReduceRecursiveDoublingAnySize(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		for _, n := range []int{3, 5, 6, 7, 12} {
			n := n
			t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
				w := newTestWorldN(k, topo.Spec{Kind: topo.FatTree}, n)
				defer w.Shutdown()
				verifyAllReduce(t, w, RecursiveDoubling, 16)
			})
		}
	})
}

// The tentpole acceptance bar: allreduce must verify at >= 64 simulated
// ranks on both topologies over both fabrics.
func TestAllReduce64Ranks(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		for _, kind := range []topo.Kind{topo.FatTree, topo.Torus3D} {
			kind := kind
			t.Run(kind.String(), func(t *testing.T) {
				w := newTestWorldN(k, topo.Spec{Kind: kind}, 64)
				defer w.Shutdown()
				verifyAllReduce(t, w, Ring, 64)
			})
		}
	})
}

// TestAllReduceAllocs guards a verified 16-rank ring and rdouble
// allreduce per fabric (EXTOLL fat-tree, IB torus), from an empty world
// to its shutdown, on allocs/op. The ceilings are 1.15x the counts
// measured with pooled hop and posted-write ops and the sparse L2; with a
// closure per hop and per write and 16 ways per touched L2 set they were
// 31,026, 12,095, 26,390 and 10,574. The recursive-doubling ceilings are
// 1.15x the counts with posted writes copying into pooled ops (5,255 and
// 7,692 before); the ring counts rose slightly with them (5,717 and
// 10,962: each pooled op allocates its byte buffer once), so
// their ceilings stay.
func TestAllReduceAllocs(t *testing.T) {
	for _, tc := range []struct {
		k    transport.Kind
		spec topo.Kind
		alg  AllReduceAlg
		base float64
	}{
		{transport.KindExtoll, topo.FatTree, Ring, 5637},
		{transport.KindExtoll, topo.FatTree, RecursiveDoubling, 5218},
		{transport.KindIB, topo.Torus3D, Ring, 10932},
		{transport.KindIB, topo.Torus3D, RecursiveDoubling, 7340},
	} {
		got := testing.AllocsPerRun(1, func() {
			w := newTestWorldN(tc.k, topo.Spec{Kind: tc.spec}, 16)
			verifyAllReduce(t, w, tc.alg, 16)
			w.Shutdown()
		})
		if limit := 1.15 * tc.base; got > limit {
			t.Errorf("%v %v %v: %.0f allocs/op, ceiling %.0f", tc.k, tc.spec, tc.alg, got, limit)
		}
	}
}

func TestAllReduceRejectsBadShapes(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.Torus3D}, 6)
	defer w.Shutdown()
	vec := w.Malloc(8 * 8)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("ring count", func() { w.NewAllReduce(Ring, vec, 8) }) // 8 % 6 != 0
	// Recursive doubling accepts any team size since the pre/post-fold
	// generalization (TestAllReduceRecursiveDoublingAnySize); the only
	// remaining shape error is the ring divisibility rule above.
}

func TestAllToAll(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		const n = 8
		const chunkW = 4
		w := newTestWorldN(k, topo.Spec{Kind: topo.FatTree}, n)
		defer w.Shutdown()
		src := w.Malloc(8 * chunkW * n)
		dst := w.Malloc(8 * chunkW * n)
		plan := w.NewAllToAll(src, dst, 8*chunkW)
		for r := 0; r < n; r++ {
			vals := make([]uint64, chunkW*n)
			for d := 0; d < n; d++ {
				for i := 0; i < chunkW; i++ {
					vals[d*chunkW+i] = uint64(r)<<16 | uint64(d)<<8 | uint64(i)
				}
			}
			hostWriteU64s(t, w.PE(r), src, vals)
		}
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			plan.Run(pe, warp)
		})
		for d := 0; d < n; d++ {
			got := hostReadU64s(t, w.PE(d), dst, chunkW*n)
			for r := 0; r < n; r++ {
				for i := 0; i < chunkW; i++ {
					want := uint64(r)<<16 | uint64(d)<<8 | uint64(i)
					if got[r*chunkW+i] != want {
						t.Fatalf("rank %d slot %d word %d = %#x, want %#x", d, r, i, got[r*chunkW+i], want)
					}
				}
			}
		}
	})
}

func TestHaloExchange(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		// 2x3x2 = 12 ranks: one axis of extent 2 (both directions hit the
		// same neighbour) and none degenerate.
		dims := [3]int{2, 3, 2}
		const faceW = 8
		w := newTestWorldN(k, topo.Spec{Kind: topo.Torus3D}, 12)
		defer w.Shutdown()
		plan := w.NewHalo(dims, 8*faceW)
		for r := 0; r < 12; r++ {
			for d := 0; d < 6; d++ {
				vals := make([]uint64, faceW)
				for i := range vals {
					vals[i] = uint64(r)<<16 | uint64(d)<<8 | uint64(i)
				}
				hostWriteU64s(t, w.PE(r), plan.SendOff(d), vals)
			}
		}
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			plan.Run(pe, warp)
		})
		for r := 0; r < 12; r++ {
			for d := 0; d < 6; d++ {
				// The face received from direction d was sent by that
				// neighbour in the opposite direction.
				nb := plan.neighbor(r, d)
				got := hostReadU64s(t, w.PE(r), plan.RecvOff(d), faceW)
				for i := range got {
					want := uint64(nb)<<16 | uint64(haloOpp(d))<<8 | uint64(i)
					if got[i] != want {
						t.Fatalf("rank %d recv dir %d word %d = %#x, want %#x (from rank %d)", r, d, i, got[i], want, nb)
					}
				}
			}
		}
	})
}

func TestUnconnectedRanksPanicWithGuidance(t *testing.T) {
	w := newTestWorldN(transport.KindExtoll, topo.Spec{Kind: topo.Torus3D}, 8)
	defer w.Shutdown()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unconnected ranks")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "World.Connect") {
			t.Fatalf("panic %q does not point at World.Connect", msg)
		}
	}()
	// A fresh world has no connections at all (the root team's barrier
	// graph materializes at first Run), so this must panic.
	w.PE(0).ep(3)
}

// TestAllReduceEngineCounts pins the engine work of a 16-rank ring and
// rdouble allreduce of 16 words on an EXTOLL fat-tree and an IB torus.
// The executed events are exact: warp run-ahead replays every wakeup as
// an event at its (at, seq), so they are the counts measured before it
// landed. The handoff ceilings are 1.15x the counts with run-ahead and
// callback-form spins (the EXTOLL rdouble cell switched 3,312 times with
// run-ahead alone); the warps switched 14,616, 8,400, 23,761 and 10,047
// times without either.
func TestAllReduceEngineCounts(t *testing.T) {
	for _, tc := range []struct {
		k                transport.Kind
		kind             topo.Kind
		alg              AllReduceAlg
		events, handoffs uint64
	}{
		{transport.KindExtoll, topo.FatTree, Ring, 30624, 10488},
		{transport.KindExtoll, topo.FatTree, RecursiveDoubling, 12600, 2864},
		{transport.KindIB, topo.Torus3D, Ring, 38059, 10203},
		{transport.KindIB, topo.Torus3D, RecursiveDoubling, 12777, 2668},
	} {
		const n = 16
		w := newTestWorldN(tc.k, topo.Spec{Kind: tc.kind}, n)
		vec := w.Malloc(8 * n)
		plan := w.NewAllReduce(tc.alg, vec, n)
		for r := 0; r < n; r++ {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64(1000*r + i)
			}
			hostWriteU64s(t, w.PE(r), vec, vals)
		}
		w.Run(func(pe *PE, warp *gpusim.Warp) { plan.Run(pe, warp) })
		for i, v := range hostReadU64s(t, w.PE(n-1), vec, n) {
			if want := uint64(1000*n*(n-1)/2 + n*i); v != want {
				t.Fatalf("%v %v %v: element %d = %d, want %d", tc.k, tc.kind, tc.alg, i, v, want)
			}
		}
		e := w.CL.E
		if e.Executed() != tc.events {
			t.Errorf("%v %v %v: %d events executed, want %d", tc.k, tc.kind, tc.alg, e.Executed(), tc.events)
		}
		if limit := tc.handoffs * 115 / 100; e.Handoffs() > limit {
			t.Errorf("%v %v %v: %d handoffs, ceiling %d", tc.k, tc.kind, tc.alg, e.Handoffs(), limit)
		}
		w.Shutdown()
	}
}
