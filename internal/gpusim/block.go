package gpusim

import (
	"encoding/binary"
	"fmt"

	"putget/internal/sim"
)

// Block is the shared state of one thread block: up to 32 warps, a
// barrier, and a software-managed shared-memory scratchpad. The paper's
// benchmarks use single-warp blocks, but applications built on the API
// (reductions, stencils) want the full CUDA block model.
type Block struct {
	g      *GPU
	idx    int
	warps  int
	shared []byte

	arrived int
	epoch   int
	barrier *sim.Signal
}

// SharedLatency is the scratchpad access latency (far below L2).
const SharedLatency = 25 * sim.Nanosecond

// Index returns the block index within the grid.
func (b *Block) Index() int { return b.idx }

// SharedBytes returns the scratchpad capacity.
func (b *Block) SharedBytes() int { return len(b.shared) }

// SyncThreads is the __syncthreads barrier: every warp of the block must
// arrive before any proceeds.
func (w *Warp) SyncThreads() {
	b := w.block
	if b == nil || b.warps == 1 {
		w.issue(1, true)
		return
	}
	w.sync()
	w.issue(1, false)
	b.arrived++
	if b.arrived == b.warps {
		b.arrived = 0
		b.epoch++
		b.barrier.Broadcast()
		return
	}
	b.barrier.Wait(w.p)
}

// LdSharedU64 loads a 64-bit word from block shared memory.
func (w *Warp) LdSharedU64(off int) uint64 {
	w.sync()
	b := w.mustBlockShared(off, 8, "LdSharedU64")
	w.g.ctr.InstrExecuted++
	w.g.ctr.MemAccesses++
	done := w.g.smIssue[w.sm].ReserveDuration(w.g.cfg.IssueCost / 8)
	w.p.SleepUntil(done)
	w.p.Sleep(SharedLatency)
	return binary.LittleEndian.Uint64(b.shared[off:])
}

// StSharedU64 stores a 64-bit word to block shared memory.
func (w *Warp) StSharedU64(off int, v uint64) {
	w.sync()
	b := w.mustBlockShared(off, 8, "StSharedU64")
	w.g.ctr.InstrExecuted++
	w.g.ctr.MemAccesses++
	done := w.g.smIssue[w.sm].ReserveDuration(w.g.cfg.IssueCost / 8)
	w.p.SleepUntil(done)
	w.p.Sleep(SharedLatency)
	binary.LittleEndian.PutUint64(b.shared[off:], v)
}

// AtomicAddSharedU64 performs a shared-memory fetch-and-add (serialized
// structurally: one warp executes at a time under the engine).
func (w *Warp) AtomicAddSharedU64(off int, delta uint64) uint64 {
	w.sync()
	b := w.mustBlockShared(off, 8, "AtomicAddSharedU64")
	w.g.ctr.InstrExecuted++
	w.g.ctr.MemAccesses++
	w.p.Sleep(SharedLatency + 2*w.g.cfg.IssueCost)
	old := binary.LittleEndian.Uint64(b.shared[off:])
	binary.LittleEndian.PutUint64(b.shared[off:], old+delta)
	return old
}

func (w *Warp) mustBlockShared(off, n int, op string) *Block {
	if w.block == nil {
		panic(fmt.Sprintf("gpusim: %s: kernel launched without shared memory", op))
	}
	if off < 0 || off+n > len(w.block.shared) {
		panic(fmt.Sprintf("gpusim: %s: shared access [%d,%d) outside %d-byte scratchpad",
			op, off, off+n, len(w.block.shared)))
	}
	return w.block
}
