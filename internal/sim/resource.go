package sim

// Resource models a capacity-limited station (a flash channel, a die,
// an ECC engine slot). Requests are granted FIFO. A grant callback runs
// synchronously when capacity becomes available; the holder must call
// Release exactly once per grant.
//
// The waiter list is a reused FIFO, so a steady-state acquire/release
// cycle allocates nothing as long as callers pass handlers they bound
// once (a method value stored on a long-lived record) rather than a
// fresh closure per acquisition.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  FIFO[Handler]

	// Busy-time accounting: busySince is valid while inUse > 0.
	busy      Time
	busySince Time
}

// NewResource creates a resource with the given grant capacity.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name reports the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// InUse reports the number of currently held grants.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of waiting acquirers.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Idle reports whether nothing holds or waits for the resource.
func (r *Resource) Idle() bool { return r.inUse == 0 && r.waiters.Len() == 0 }

// Acquire requests one unit of capacity. If available, fn runs
// immediately; otherwise it is queued FIFO.
//
//riflint:hotpath
func (r *Resource) Acquire(fn Handler) {
	if r.inUse < r.capacity {
		r.grant(fn)
		return
	}
	r.waiters.Push(fn)
}

// TryAcquire requests one unit only if immediately available,
// reporting whether the grant happened.
func (r *Resource) TryAcquire(fn Handler) bool {
	if r.inUse < r.capacity {
		r.grant(fn)
		return true
	}
	return false
}

func (r *Resource) grant(fn Handler) {
	if r.inUse == 0 {
		r.busySince = r.eng.Now()
	}
	r.inUse++
	fn()
}

// Release returns one unit of capacity and hands it to the next waiter,
// if any. The waiter's callback runs synchronously.
//
//riflint:hotpath
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	if r.inUse == 0 {
		r.busy += r.eng.Now() - r.busySince
	}
	if r.waiters.Len() > 0 {
		r.grant(r.waiters.Pop())
	}
}

// BusyTime reports the cumulative time during which at least one grant
// was held, up to the current clock.
func (r *Resource) BusyTime() Time {
	b := r.busy
	if r.inUse > 0 {
		b += r.eng.Now() - r.busySince
	}
	return b
}
