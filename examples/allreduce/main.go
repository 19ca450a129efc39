// Allreduce sums a distributed vector across the two GPUs using the
// GPU-SHMEM layer (internal/shmem) — the style of library the paper's
// conclusion calls for. Each PE contributes a vector; after the exchange
// both hold the element-wise sum, with all communication initiated by the
// GPU kernels themselves.
//
//	go run ./examples/allreduce
//	go run ./examples/allreduce -elems 65536
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"

	"putget"
	"putget/internal/gpusim"
	"putget/internal/shmem"
	"putget/internal/sim"
)

func main() {
	elems := flag.Int("elems", 16384, "vector elements (uint64) per PE")
	flag.Parse()

	p := putget.DefaultParams()
	p.GPUDevMemSize = 128 << 20
	bytes := uint64(*elems) * 8

	w := shmem.NewWorld(p, 4*bytes+4096)
	vec := w.Malloc(bytes)     // each PE's contribution, reduced in place
	staging := w.Malloc(bytes) // peer data lands here

	// Fill each PE's vector: PE r holds value (i + r) at index i.
	for r := 0; r < w.N(); r++ {
		buf := make([]byte, bytes)
		for i := 0; i < *elems; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(i+r))
		}
		if err := w.PE(r).HostWrite(vec, buf); err != nil {
			log.Fatal(err)
		}
	}

	var start, end sim.Time
	w.Run(func(pe *shmem.PE, warp *gpusim.Warp) {
		if pe.Rank == 0 {
			start = warp.Now()
		}
		// Exchange: put my vector into the peer's staging buffer; the
		// barrier both flushes the puts and orders the reduction.
		peer := 1 - pe.Rank
		pe.PutTo(warp, peer, staging, vec, int(bytes))
		pe.QuietAll(warp)
		pe.BarrierAll(warp)
		// Reduce: vec[i] += staging[i], a coalesced read-add-write sweep.
		per := 8 * warp.Lanes
		for off := 0; off < int(bytes); off += per {
			vals := warp.LdGlobalU64Coalesced(pe.Addr(staging + uint64(off)))
			mine := warp.LdGlobalU64Coalesced(pe.Addr(vec + uint64(off)))
			for i := range vals {
				vals[i] += mine[i]
			}
			warp.StGlobalU64Coalesced(pe.Addr(vec+uint64(off)), vals)
		}
		pe.BarrierAll(warp)
		if pe.Rank == 0 {
			end = warp.Now()
		}
	})

	// Verify on both PEs: result[i] = (i+0) + (i+1) = 2i + 1.
	for r := 0; r < w.N(); r++ {
		buf := make([]byte, bytes)
		if err := w.PE(r).HostRead(vec, buf); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *elems; i++ {
			if got := binary.LittleEndian.Uint64(buf[i*8:]); got != uint64(2*i+1) {
				log.Fatalf("PE %d: element %d = %d, want %d", r, i, got, 2*i+1)
			}
		}
	}

	total := end.Sub(start)
	fmt.Printf("allreduce of %d uint64s across 2 GPUs: verified\n", *elems)
	fmt.Printf("virtual time %v (%.1f MB moved at %.0f MB/s effective)\n",
		total, float64(2*bytes)/1e6,
		float64(2*bytes)/1e6/total.Seconds())
}
