// Dotproduct computes a distributed dot product: each GPU reduces its half
// of two vectors with a classic CUDA-style kernel — coalesced loads,
// shared-memory partial sums, __syncthreads, a global atomic — and the two
// partial results meet over the fabric through the GPU-SHMEM layer. It
// exercises the full block model (multi-warp blocks, shared memory,
// atomics) together with GPU-initiated communication.
//
//	go run ./examples/dotproduct
//	go run ./examples/dotproduct -elems 262144
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"

	"putget"
	"putget/internal/gpusim"
	"putget/internal/memspace"
	"putget/internal/shmem"
)

func main() {
	elems := flag.Int("elems", 65536, "vector elements (uint64) per GPU")
	flag.Parse()

	p := putget.DefaultParams()
	p.GPUDevMemSize = 256 << 20
	bytes := uint64(*elems) * 8

	w := shmem.NewWorld(p, 2*bytes+65536)
	x := w.Malloc(bytes)
	y := w.Malloc(bytes)
	partial := w.Malloc(8) // per-PE accumulator (symmetric)
	peerSum := w.Malloc(8) // where the peer's partial lands

	// x[i] = i%7+1, y[i] = i%5+1 on both halves; expected dot product is
	// computable exactly.
	var expect uint64
	for r := 0; r < w.N(); r++ {
		pe := w.PE(r)
		bx := make([]byte, bytes)
		by := make([]byte, bytes)
		for i := 0; i < *elems; i++ {
			g := uint64(r**elems + i)
			xv, yv := g%7+1, g%5+1
			binary.LittleEndian.PutUint64(bx[i*8:], xv)
			binary.LittleEndian.PutUint64(by[i*8:], yv)
			expect += xv * yv
		}
		if err := pe.HostWrite(x, bx); err != nil {
			log.Fatal(err)
		}
		if err := pe.HostWrite(y, by); err != nil {
			log.Fatal(err)
		}
	}

	// Each PE launches a multi-block reduction kernel, then exchanges the
	// partial with the peer and adds. The SPMD shmem.Run gives us one warp
	// per PE for the communication epilogue, so the reduction grid runs
	// first as its own kernel.
	const blocks, threads = 13, 256
	results := make([]uint64, 2)

	for r := 0; r < w.N(); r++ {
		pe := w.PE(r)
		node := pe.Node
		perBlock := (*elems + blocks - 1) / blocks
		node.GPU.Launch(gpusim.KernelConfig{
			Blocks: blocks, ThreadsPerBlock: threads, SharedBytes: 64,
		}, func(warp *gpusim.Warp) {
			// Grid-stride over this block's slice, 32 lanes per warp.
			warpsPerBlock := threads / 32
			lo := warp.Block * perBlock
			hi := lo + perBlock
			if hi > *elems {
				hi = *elems
			}
			var acc uint64
			step := 8 * warp.Lanes * warpsPerBlock
			base := lo*8 + warp.WarpID*8*warp.Lanes
			for off := base; off < hi*8; off += step {
				end := off + 8*warp.Lanes
				if end > hi*8 {
					end = hi * 8
				}
				xs := loadVec(warp, pe.Addr(x+uint64(off)), (end-off)/8)
				ys := loadVec(warp, pe.Addr(y+uint64(off)), (end-off)/8)
				for i := range xs {
					acc += xs[i] * ys[i]
				}
				warp.Exec(2 * len(xs)) // multiply-add per lane pair
			}
			// Shared-memory block reduction, then one global atomic.
			warp.AtomicAddSharedU64(0, acc)
			warp.SyncThreads()
			if warp.WarpID == 0 {
				blockSum := warp.LdSharedU64(0)
				warp.AtomicAddGlobalU64(pe.Addr(partial), blockSum)
			}
		})
	}

	// Exchange partials and combine, GPU-initiated. The epilogue kernel
	// queues behind the reduction kernel on each GPU's default stream, and
	// the closing barrier guarantees the peer's partial has landed.
	w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
		mine := warp.LdGlobalU64(pe.Addr(partial))
		pe.PutImmTo(warp, 1-pe.Rank, peerSum, mine)
		pe.QuietAll(warp)
		pe.BarrierAll(warp)
	})

	// Combine and verify on both PEs.
	for r := 0; r < w.N(); r++ {
		pe := w.PE(r)
		var buf [8]byte
		if err := pe.HostRead(partial, buf[:]); err != nil {
			log.Fatal(err)
		}
		mine := binary.LittleEndian.Uint64(buf[:])
		if err := pe.HostRead(peerSum, buf[:]); err != nil {
			log.Fatal(err)
		}
		theirs := binary.LittleEndian.Uint64(buf[:])
		results[r] = mine + theirs
	}
	if results[0] != expect || results[1] != expect {
		log.Fatalf("dot product = %v, want %d", results, expect)
	}
	fmt.Printf("distributed dot product of 2x%d elements: %d (verified)\n", *elems, expect)
}

// loadVec loads n consecutive 64-bit words as one coalesced warp access.
func loadVec(w *gpusim.Warp, addr memspace.Addr, n int) []uint64 {
	vals := w.LdGlobalU64Coalesced(addr)
	if n < len(vals) {
		vals = vals[:n]
	}
	return vals
}
