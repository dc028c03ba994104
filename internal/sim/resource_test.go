package sim

import "testing"

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	granted := false
	r.Acquire(func() { granted = true })
	if !granted {
		t.Fatal("grant was not immediate on idle resource")
	}
	if r.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", r.InUse())
	}
	r.Release()
	if !r.Idle() {
		t.Fatal("resource not idle after release")
	}
}

func TestResourceFIFOQueue(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	var order []int
	hold := func(id int, d Time) {
		r.Acquire(func() {
			order = append(order, id)
			e.After(d, r.Release)
		})
	}
	e.At(0, func() {
		hold(1, 10)
		hold(2, 10)
		hold(3, 10)
	})
	e.Run()
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("grant order = %v", order)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die", 2)
	active := 0
	maxActive := 0
	for i := 0; i < 5; i++ {
		e.At(0, func() {
			r.Acquire(func() {
				active++
				if active > maxActive {
					maxActive = active
				}
				e.After(10, func() {
					active--
					r.Release()
				})
			})
		})
	}
	e.Run()
	if maxActive != 2 {
		t.Fatalf("max concurrent grants = %d, want 2", maxActive)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ecc", 1)
	if !r.TryAcquire(func() {}) {
		t.Fatal("TryAcquire failed on idle resource")
	}
	if r.TryAcquire(func() { t.Fatal("granted over capacity") }) {
		t.Fatal("TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire(func() {}) {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewResource(e, "x", 0)
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	e.At(100, func() { hold(r, 50, nil) })
	e.At(400, func() { hold(r, 25, nil) })
	e.Run()
	if got := r.BusyTime(); got != 75 {
		t.Fatalf("BusyTime = %v, want 75", got)
	}
}

func TestResourceHoldChainsDone(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	var doneAt Time = -1
	e.At(0, func() {
		hold(r, 30, func() { doneAt = e.Now() })
	})
	e.Run()
	if doneAt != 30 {
		t.Fatalf("done ran at %v, want 30", doneAt)
	}
	if !r.Idle() {
		t.Fatal("resource busy after the hold completed")
	}
}

// TestResourceAcquireReleaseZeroAlloc pins the steady-state
// acquire/hold/release cycle with bound handlers: queued waiters ride
// the reused FIFO, so once its ring has grown to the waiter high-water
// mark nothing allocates.
func TestResourceAcquireReleaseZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "host", 1)
	h := &holder{r: r, d: 5}
	h.granted, h.released = h.grant, h.release
	cycle := func() {
		for i := 0; i < 8; i++ {
			r.Acquire(h.granted)
		}
		e.Run()
	}
	cycle() // warm the waiter ring and the event free list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("acquire/release cycle allocates %.1f times per run, want 0", allocs)
	}
	if !r.Idle() || r.BusyTime() == 0 {
		t.Fatal("resource not exercised")
	}
}

// holder is a long-lived record with its handlers bound once, the way
// the SSD model's command records use a Resource.
type holder struct {
	r                 *Resource
	d                 Time
	granted, released Handler
}

func (h *holder) grant()   { h.r.eng.After(h.d, h.released) }
func (h *holder) release() { h.r.Release() }

func TestResourceBackToBackUtilization(t *testing.T) {
	// Saturating a unit-capacity resource with N back-to-back holds of
	// length d must take exactly N*d with 100% utilization.
	e := NewEngine()
	r := NewResource(e, "ch", 1)
	const n, d = 20, 13
	e.At(0, func() {
		for i := 0; i < n; i++ {
			hold(r, d, nil)
		}
	})
	end := e.Run()
	if end != n*d {
		t.Fatalf("end = %v, want %v", end, Time(n*d))
	}
	if r.BusyTime() != n*d {
		t.Fatalf("busy = %v, want %v", r.BusyTime(), Time(n*d))
	}
}

// hold acquires r, keeps the grant for d, then releases it and runs
// done (if non-nil) — the acquire/hold/release idiom the tests drive.
func hold(r *Resource, d Time, done Handler) {
	r.Acquire(func() {
		r.eng.After(d, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}
