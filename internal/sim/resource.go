package sim

// Resource is a counting semaphore with FIFO admission, used to model
// exclusive or limited hardware units (an SM issue port, a DMA engine).
// Processes block in Acquire; engine callbacks queue with AcquireFunc.
type Resource struct {
	e     *Engine
	cap   int
	inUse int
	queue []func() // wake callbacks of blocked acquirers, FIFO
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{e: e, cap: capacity}
}

// Acquire blocks p until a unit is available, honouring FIFO order. p
// must belong to the same engine as the resource (affinity guard).
func (r *Resource) Acquire(p *Proc) {
	r.e.mustOwn(p, "Resource.Acquire")
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p.resumeF)
	p.park()
	// Ownership was transferred by Release before the wakeup.
}

// AcquireFunc is the callback form of Acquire: fn runs once a unit is
// held — at once when one is free and nobody queues ahead, else as the
// event Release schedules when it hands a unit over. Build fn once (a
// method value kept by its owner) so acquiring does not allocate.
//
//putget:hot
func (r *Resource) AcquireFunc(fn func()) {
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		fn()
		return
	}
	r.queue = append(r.queue, fn)
}

// TryAcquire acquires a unit without blocking; reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If an acquirer is queued, ownership passes
// directly to the head of the queue. The queue shifts down in place,
// keeping its backing array, so a contended resource stops allocating.
//
//putget:hot
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if q := r.queue; len(q) > 0 {
		w := q[0]
		n := copy(q, q[1:])
		q[n] = nil // do not retain the departing waiter
		r.queue = q[:n]
		// inUse stays: the unit transfers to w.
		r.e.At(r.e.now, w)
		return
	}
	r.inUse--
}

// InUse reports the number of held units.
func (r *Resource) InUse() int { return r.inUse }
