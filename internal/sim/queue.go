package sim

import (
	"math"
	"math/bits"
)

// The pending-event queue is a calendar queue (Brown, CACM 1988): a ring
// of buckets, each a list of events kept in (at, seq) order, where an
// event at time t lives in bucket (t>>shift) & mask. The ring covers one
// "year" of nb<<shift picoseconds; events further out share buckets with
// earlier ones and wait for the cursor to come round. Schedule and pop
// cost O(1) when the bucket width matches the events' spacing, which
// the queue re-samples as it grows, shrinks, or finds itself mistuned.
//
// (at, seq) is a total order and the queue pops exactly that order, so
// its layout is invisible to simulation results.

// minBuckets is the smallest ring. Small queues (a lone process
// sleeping, a pair of NICs) scan few empty buckets per pop.
const minBuckets = 4

// node is one queued event in the calendar's arena. prev and next link
// it into its bucket's list (next also links the free list). gen counts
// the node's releases, so a Timer handle to a recycled node is inert.
type node struct {
	at         Time
	seq        uint64
	fn         func()
	prev, next int32
	gen        uint32
}

// bucket is one ring slot: the ends of a node list in (at, seq) order.
type bucket struct{ head, tail int32 }

// calendar is the engine's event queue. Nodes live in one pooled arena
// and are addressed by index, so an event keeps its index while queued
// (Timer handles hold it) and resizing moves no node.
type calendar struct {
	nodes   []node
	free    int32 // head of the free-node list, -1 when empty
	buckets []bucket
	mask    int  // len(buckets)-1; the count is a power of two
	shift   uint // bucket width is 1<<shift ps
	// cur is the window (t>>shift) the next locate starts from. Every
	// queued event lies at or after it.
	cur Time
	n   int // queued events
}

// init empties the queue. Buckets are ~1 ns wide until the first
// resize samples the queued events.
func (q *calendar) init() {
	q.free = -1
	q.shift = 10
	q.rebucket(minBuckets, 0)
}

// push queues fn at (at, seq) and returns its node; seq must exceed that
// of every queued event. now is the engine clock.
//
//putget:hot
func (q *calendar) push(at Time, seq uint64, fn func(), now Time) int32 {
	i := q.free
	if i >= 0 {
		q.free = q.nodes[i].next
	} else {
		q.nodes = append(q.nodes, node{})
		i = int32(len(q.nodes) - 1)
	}
	nd := &q.nodes[i]
	nd.at, nd.seq, nd.fn = at, seq, fn
	q.insert(i)
	q.n++
	if q.n > 2*len(q.buckets) {
		q.rebucket(2*len(q.buckets), now)
	}
	return i
}

// insert links node i into its bucket. It walks back from the tail past
// later events only: an equal time keeps the earlier schedule order, and
// a freshly scheduled event carries the largest seq, so inserts almost
// always append.
//
//putget:hot
func (q *calendar) insert(i int32) {
	nodes := q.nodes
	at := nodes[i].at
	w := at >> q.shift
	if w < q.cur {
		// Earlier than the cursor's window: a peek (see Proc.SleepUntil)
		// moved the cursor past now, and this event comes before it.
		q.cur = w
	}
	b := &q.buckets[int(w)&q.mask]
	p := b.tail
	for p >= 0 && nodes[p].at > at {
		p = nodes[p].prev
	}
	nd := &nodes[i]
	nd.prev = p
	if p < 0 {
		nd.next = b.head
		b.head = i
	} else {
		nd.next = nodes[p].next
		nodes[p].next = i
	}
	if nd.next >= 0 {
		nodes[nd.next].prev = i
	} else {
		b.tail = i
	}
}

// locate returns the node of the earliest queued event; the queue must
// not be empty. It scans forward from the cursor and leaves the cursor
// at the event's window, so a peek followed by a pop scans once. When a
// whole ring holds nothing in its window, the width is too small for
// the queue: it takes the earliest bucket head and re-buckets.
//
//putget:hot
func (q *calendar) locate(now Time) int32 {
	nodes, buckets, mask, shift := q.nodes, q.buckets, q.mask, q.shift
	w := q.cur
	for k := 0; k <= mask; k++ {
		if h := buckets[int(w)&mask].head; h >= 0 && nodes[h].at>>shift <= w {
			q.cur = w
			return h
		}
		w++
	}
	min := int32(-1)
	for _, b := range buckets {
		if h := b.head; h >= 0 && (min < 0 || nodes[h].at < nodes[min].at ||
			nodes[h].at == nodes[min].at && nodes[h].seq < nodes[min].seq) {
			min = h
		}
	}
	q.rebucket(len(buckets), now)
	return min
}

// remove unlinks node i, recycles it, and returns its callback.
//
//putget:hot
func (q *calendar) remove(i int32, now Time) func() {
	nodes := q.nodes
	nd := &nodes[i]
	b := &q.buckets[int(nd.at>>q.shift)&q.mask]
	if nd.prev >= 0 {
		nodes[nd.prev].next = nd.next
	} else {
		b.head = nd.next
	}
	if nd.next >= 0 {
		nodes[nd.next].prev = nd.prev
	} else {
		b.tail = nd.prev
	}
	fn := nd.fn
	nd.fn = nil
	nd.gen++
	nd.next = q.free
	q.free = i
	q.n--
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.rebucket(len(q.buckets)/2, now)
	}
	return fn
}

// rebucket re-samples the bucket width from the queued events and
// spreads them over nb buckets. It works in place: the nodes are chained
// through next, bucket by bucket, and re-inserted; the ring allocates
// only when it grows past its largest size so far.
func (q *calendar) rebucket(nb int, now Time) {
	nodes := q.nodes
	head, tail := int32(-1), int32(-1)
	lo := Time(math.MaxInt64)
	for _, b := range q.buckets {
		if b.head < 0 {
			continue
		}
		if head < 0 {
			head = b.head
		} else {
			nodes[tail].next = b.head
		}
		tail = b.tail
		if nodes[b.head].at < lo {
			lo = nodes[b.head].at
		}
	}
	if head >= 0 {
		q.shift = q.width(head, lo, now)
	}
	if cap(q.buckets) < nb {
		q.buckets = make([]bucket, nb)
	}
	q.buckets = q.buckets[:nb]
	for k := range q.buckets {
		q.buckets[k] = bucket{-1, -1}
	}
	q.mask = nb - 1
	q.cur = math.MaxInt64
	for i := head; i >= 0; {
		next := nodes[i].next
		q.insert(i)
		i = next
	}
}

// width returns the shift of the bucket width: the mean spacing of the
// chained events from head, the earliest of which is at lo, rounded down
// to a power of two. Events more than twice the mean offset past lo (far
// timeouts) are left out of the mean, so they do not stretch the buckets
// of the dense part. With no spread (one event, or all at one instant)
// the spacing is the wait from now to lo.
func (q *calendar) width(head int32, lo, now Time) uint {
	nodes := q.nodes
	var sum, cnt float64
	for i := head; i >= 0; i = nodes[i].next {
		sum += float64(nodes[i].at - lo)
		cnt++
	}
	cut := 2 * sum / cnt
	sum, cnt = 0, 0
	for i := head; i >= 0; i = nodes[i].next {
		if off := float64(nodes[i].at - lo); off <= cut {
			sum += off
			cnt++
		}
	}
	// Offsets spread evenly over [0, S) average S/2: the spacing is S/cnt.
	spacing := 2 * sum / (cnt * cnt)
	if spacing == 0 {
		spacing = float64(lo - now)
	}
	switch {
	case spacing < 1:
		return q.shift
	case spacing >= 1<<62:
		return 62
	}
	return uint(bits.Len64(uint64(spacing)) - 1)
}
