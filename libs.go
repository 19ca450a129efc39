package putget

import (
	"putget/internal/cluster"
	"putget/internal/msg"
	"putget/internal/shmem"
)

// This file re-exports the two communication libraries layered on the
// put/get APIs — the directions the paper's conclusion points to.

// ShmemWorld is an OpenSHMEM-flavoured GPU job, one PE per node:
// symmetric heap, GPU-initiated PutTo/GetFrom/PutImmTo to a peer rank,
// QuietAll, BarrierAll, device-memory WaitUntil, teams and collectives.
// See the allreduce, dotproduct and collectives examples.
type ShmemWorld = shmem.World

// ShmemPE is one processing element of a ShmemWorld.
type ShmemPE = shmem.PE

// NewShmemWorld builds the two-GPU SHMEM job — the 2-rank world over
// EXTOLL on a direct cable — with the given symmetric heap size per GPU.
func NewShmemWorld(p Params, heapBytes uint64) *ShmemWorld {
	return shmem.NewWorld(p, heapBytes)
}

// MsgEndpoint is one side of a two-sided (MPI-style) tagged send/recv
// channel over InfiniBand, with eager buffering and an RDMA-READ
// rendezvous protocol — the hybrid-model baseline of the paper's §II-B.
type MsgEndpoint = msg.Endpoint

// NewMsgPair builds two connected message endpoints over a fresh
// InfiniBand testbed and returns them with the underlying cluster.
func NewMsgPair(p Params) (*MsgEndpoint, *MsgEndpoint, *cluster.Testbed) {
	return msg.NewPair(p)
}
