package sim

import "math/bits"

// Payload is a DMA payload buffer from its engine's free list. A NIC
// fetches a put's or get response's bytes into one, and every holder of
// those bytes owns one reference: the packet's single in-flight copy, the
// reliability window's entry, an accepted delivery until its completer
// write has landed. The buffer returns to the free list when the last
// reference is released. A buffer that is never released (a lost packet)
// is simply left to the garbage collector.
//
// Every released buffer is overwritten with poisonByte, so a reader that
// kept a stale slice sees garbage instead of silently correct bytes. That
// memset costs what the make it replaces paid for zeroing.
//
// The free list belongs to one engine: cells running concurrently under
// -parallel never share it, and Shutdown drops it. Getting and releasing
// buffers schedules nothing, so pooling is invisible to the simulation.
type Payload struct {
	// B holds the payload bytes; its contents are only defined until the
	// holder's reference is released.
	B     []byte
	refs  int32
	class uint8
	e     *Engine
}

// poisonByte fills released payload buffers.
const poisonByte = 0xDB

// payloadClasses bounds the size classes: class c holds 1<<c bytes.
const payloadClasses = 48

// payloadPool is an engine's free list, one stack per power-of-two size
// class.
type payloadPool struct {
	free [payloadClasses][]*Payload
	hits uint64
}

// NewPayload returns an n-byte buffer with one reference, recycled from
// the engine's free list when one of its size class is free. The bytes
// are not zeroed: the caller overwrites all n (a DMA read fills them).
func (e *Engine) NewPayload(n int) *Payload {
	c := uint8(0)
	if n > 1 {
		c = uint8(bits.Len(uint(n - 1)))
	}
	pool := &e.payloads
	if free := pool.free[c]; len(free) > 0 {
		pl := free[len(free)-1]
		free[len(free)-1] = nil
		pool.free[c] = free[:len(free)-1]
		pool.hits++
		pl.B = pl.B[:n]
		pl.refs = 1
		return pl
	}
	return &Payload{B: make([]byte, n, 1<<c), refs: 1, class: c, e: e}
}

// PayloadHits reports how many NewPayload calls reused a released buffer.
func (e *Engine) PayloadHits() uint64 { return e.payloads.hits }

// Hold takes one more reference. A nil payload (bytes the pool did not
// hand out) ignores it.
func (pl *Payload) Hold() {
	if pl != nil {
		pl.refs++
	}
}

// Release drops one reference; the last one poisons the buffer and
// returns it to the free list (unless the engine was shut down). A nil
// payload ignores it.
func (pl *Payload) Release() {
	if pl == nil {
		return
	}
	pl.refs--
	switch {
	case pl.refs > 0:
		return
	case pl.refs < 0:
		panic("sim: payload released more often than held")
	}
	b := pl.B[:cap(pl.B)]
	b[0] = poisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
	if e := pl.e; !e.dead {
		e.payloads.free[pl.class] = append(e.payloads.free[pl.class], pl)
	}
}
