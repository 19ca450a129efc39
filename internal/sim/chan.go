package sim

// Chan is an unbounded FIFO mailbox. Send never blocks; Recv parks a
// process until an item is available, and an engine callback drains it
// with TryRecv and WaitFunc. It models hardware work queues whose depth
// we do not want to constrain (back-pressure, where needed, is modelled
// explicitly by the producer).
//
// Storage is a head-indexed power-of-two ring: consumed slots are zeroed
// and reused, so a long-lived mailbox's footprint tracks its peak
// occupancy, not its lifetime item count (the former front-slicing
// implementation retained the consumed prefix of the backing array
// forever).
type Chan[T any] struct {
	e       *Engine
	buf     []T // ring storage, len is a power of two (or 0)
	head    int // index of the oldest item
	n       int // occupancy
	waiters *Signal
}

// NewChan creates a mailbox bound to engine e.
func NewChan[T any](e *Engine) *Chan[T] {
	return &Chan[T]{e: e, waiters: NewSignal(e)}
}

// Send enqueues v and wakes one blocked receiver, if any.
func (c *Chan[T]) Send(v T) {
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = v
	c.n++
	c.waiters.Pulse()
}

// grow doubles the ring (minimum 8 slots), unwrapping the live items to
// the front of the new buffer.
func (c *Chan[T]) grow() {
	cap := 2 * len(c.buf)
	if cap < 8 {
		cap = 8
	}
	nb := make([]T, cap)
	for i := 0; i < c.n; i++ {
		nb[i] = c.buf[(c.head+i)&(len(c.buf)-1)]
	}
	c.buf = nb
	c.head = 0
}

// take removes and returns the oldest item; the caller guarantees c.n > 0.
// The vacated slot is zeroed so the ring does not retain the value.
func (c *Chan[T]) take() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	return v
}

// Recv dequeues the oldest item, parking p until one exists. p must
// belong to the same engine as the channel (affinity guard).
func (c *Chan[T]) Recv(p *Proc) T {
	c.e.mustOwn(p, "Chan.Recv")
	for c.n == 0 {
		c.waiters.Wait(p)
	}
	return c.take()
}

// TryRecv dequeues without blocking; ok reports whether an item was taken.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.n == 0 {
		return v, false
	}
	return c.take(), true
}

// WaitFunc is the callback form of a Recv that finds the mailbox empty:
// call it after TryRecv found no item. fn runs as an event at the
// instant of the Send that wakes it, and then takes its items with
// TryRecv.
func (c *Chan[T]) WaitFunc(fn func()) { c.waiters.WaitFunc(fn) }

// Len reports the number of queued items.
func (c *Chan[T]) Len() int { return c.n }
