package main

import (
	"container/heap"
	"time"
)

// The reference is a fixed piece of Go work, independent of the
// simulator, with the simulator's cost profile in small: goroutine
// handoffs over unbuffered channels, an event-queue-like heap, and
// short-lived pointerful allocations. A plain pass runs a slice of it
// before every cell and after the last, so each cell has a measure of
// the host's speed on both sides of it. Scaling a cell's times by the
// reference cancels the host's speed changes, which on shared machines
// reach tens of percent over minutes, while any change to the
// simulator's own code still moves the scaled times.

type refNode struct {
	next *refNode
	v    [3]uint64
}

type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

var refSink uint64

// refNominal is the reference slice's host time on the 2-core 2.1 GHz
// x86-64 host the benchmark was sized on. Scaled times are host times
// times refNominal over the adjacent slices' measured time, so they
// read as seconds on that host at its faster, quieter times.
const refNominal = 20 * time.Millisecond

// runReference runs one slice of the reference work, about 25 ms on a
// 2 GHz x86-64 core.
func runReference() {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := uint64(0); i < 20000; i++ {
		ping <- i
		refSink += <-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited

	h := &refHeap{}
	var list *refNode
	x := uint64(1)
	for i := 0; i < 60000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(h, x>>20)
		if h.Len() > 1024 {
			refSink += heap.Pop(h).(uint64)
		}
		list = &refNode{next: list, v: [3]uint64{x}}
		if i%4096 == 0 {
			list = nil
		}
	}
	for p := list; p != nil; p = p.next {
		refSink += p.v[0]
	}
}
