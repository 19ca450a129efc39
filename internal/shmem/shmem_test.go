package shmem

import (
	"bytes"
	"encoding/binary"
	"testing"

	"putget/internal/gpusim"
	"putget/internal/topo"
	"putget/internal/transport"
)

// forBothFabrics runs a test body as a subtest over each transport
// backend: the SHMEM library itself is fabric-agnostic, so every
// semantic property must hold over EXTOLL and InfiniBand alike.
func forBothFabrics(t *testing.T, f func(t *testing.T, k transport.Kind)) {
	for _, k := range []transport.Kind{transport.KindExtoll, transport.KindIB} {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// newPairWorld builds the paper's two-GPU job: the 2-rank world on a
// topo.Direct cable.
func newPairWorld(k transport.Kind) *World {
	return newTestWorldN(k, topo.Spec{Kind: topo.Direct}, 2)
}

func TestPutQuietDelivers(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		w := newPairWorld(k)
		defer w.Shutdown()
		buf := w.Malloc(4096)
		payload := make([]byte, 4096)
		for i := range payload {
			payload[i] = byte(i * 5)
		}
		if err := w.PE(0).HostWrite(buf, payload); err != nil {
			t.Fatal(err)
		}
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			if pe.Rank == 0 {
				pe.PutTo(warp, 1, buf, buf, len(payload))
				pe.QuietAll(warp)
			}
		})
		got := make([]byte, len(payload))
		if err := w.PE(1).HostRead(buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("put payload corrupted")
		}
	})
}

func TestGetFetchesPeerData(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		w := newPairWorld(k)
		defer w.Shutdown()
		src := w.Malloc(1024)
		dst := w.Malloc(1024)
		payload := []byte("symmetric heap payload for shmem get")
		if err := w.PE(1).HostWrite(src, payload); err != nil {
			t.Fatal(err)
		}
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			if pe.Rank == 0 {
				pe.GetFrom(warp, 1, dst, src, len(payload))
				// Data must be visible immediately after GetFrom returns.
				v := warp.LdGlobalU64(pe.Addr(dst))
				want := binary.LittleEndian.Uint64(payload[:8])
				if v != want {
					t.Errorf("get returned before data arrived: %#x != %#x", v, want)
				}
			}
		})
		got := make([]byte, len(payload))
		if err := w.PE(0).HostRead(dst, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("get payload corrupted")
		}
	})
}

func TestPutImmAndWaitUntil(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		w := newPairWorld(k)
		defer w.Shutdown()
		flag := w.Malloc(8)
		var sawAt int64
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			if pe.Rank == 0 {
				warp.Proc().Sleep(20_000_000) // 20us
				pe.PutImmTo(warp, 1, flag, 0x77)
				pe.QuietAll(warp)
			} else {
				pe.WaitUntil(warp, flag, 0x77)
				sawAt = int64(warp.Now())
			}
		})
		if sawAt < 20_000_000 {
			t.Fatalf("PE1 passed WaitUntil at %d before the PutImmTo", sawAt)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		w := newPairWorld(k)
		defer w.Shutdown()
		const rounds = 5
		var exits [2][rounds]int64
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			for r := 0; r < rounds; r++ {
				// Rank 1 dawdles before the barrier on even rounds, rank 0 on
				// odd rounds: the barrier must absorb the skew either way.
				if (r+pe.Rank)%2 == 0 {
					warp.Proc().Sleep(30_000_000) // 30us
				}
				pe.BarrierAll(warp)
				exits[pe.Rank][r] = int64(warp.Now())
			}
		})
		for r := 0; r < rounds; r++ {
			d := exits[0][r] - exits[1][r]
			if d < 0 {
				d = -d
			}
			// Exits must be within one fabric crossing of each other.
			if d > 20_000_000 {
				t.Fatalf("round %d barrier exits skewed by %dps", r, d)
			}
			// And a barrier exit must not precede the slow PE's arrival.
			if r == 0 && (exits[0][0] < 30_000_000 || exits[1][0] < 30_000_000) {
				t.Fatalf("round 0 exits (%d, %d) precede the 30us dawdle", exits[0][0], exits[1][0])
			}
		}
	})
}

func TestBarrierRepeats(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		// Back-to-back barriers with no work in between must not deadlock or
		// mix epochs.
		w := newPairWorld(k)
		defer w.Shutdown()
		count := 0
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			for i := 0; i < 20; i++ {
				pe.BarrierAll(warp)
			}
			count++
		})
		if count != 2 {
			t.Fatalf("finished PEs = %d", count)
		}
	})
}

func TestSymmetricHeapDiscipline(t *testing.T) {
	w := NewWorld(clusterParams(), 4096)
	a := w.Malloc(100)
	b := w.Malloc(100)
	if a == b {
		t.Fatal("allocations overlap")
	}
	if a%8 != 0 || b%8 != 0 {
		t.Fatal("allocations unaligned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("heap exhaustion not detected")
		}
	}()
	w.Malloc(1 << 20)
}

func TestPingPongLatencyReasonable(t *testing.T) {
	forBothFabrics(t, func(t *testing.T, k transport.Kind) {
		// A shmem-level ping-pong should cost on the order of the pollOnGPU
		// latency — it is built from PutImmTo + WaitUntil.
		w := newPairWorld(k)
		defer w.Shutdown()
		flag := w.Malloc(16)
		const iters = 10
		var start, end int64
		w.Run(func(pe *PE, warp *gpusim.Warp) {
			mine := flag
			theirs := flag + 8
			if pe.Rank == 0 {
				start = int64(warp.Now())
				for i := uint64(1); i <= iters; i++ {
					pe.PutImmTo(warp, 1, theirs, i)
					pe.QuietAll(warp)
					pe.WaitUntil(warp, mine, i)
				}
				end = int64(warp.Now())
			} else {
				for i := uint64(1); i <= iters; i++ {
					pe.WaitUntil(warp, theirs, i)
					pe.PutImmTo(warp, 0, mine, i)
					pe.QuietAll(warp)
				}
			}
		})
		perIter := (end - start) / iters
		// Half-RTT should be a handful of microseconds.
		if perIter <= 0 || perIter > 40_000_000 {
			t.Fatalf("shmem ping-pong %dps per iteration", perIter)
		}
	})
}
