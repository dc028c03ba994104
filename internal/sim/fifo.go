package sim

// FIFO is a reusable ring-buffer queue: the simulator's stations and
// waiter lists keep one per queue for the whole run instead of
// re-slicing (q = q[1:]), which leaks the head of the backing array
// and reallocates on every refill. A popped slot is zeroed so the
// queue never pins a finished element; the backing array grows only
// when the queue sets a new depth high-water mark. The zero value is
// an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
//
//riflint:hotpath
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// PushFront puts v at the head, ahead of everything queued.
//
//riflint:hotpath
func (q *FIFO[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
	q.buf[q.head] = v
	q.n++
}

// Front returns a pointer to the head element, valid until the next
// Push, PushFront or Pop. It panics on an empty queue.
func (q *FIFO[T]) Front() *T {
	if q.n == 0 {
		panic("sim: Front of empty FIFO")
	}
	return &q.buf[q.head]
}

// Pop removes and returns the head element. It panics on an empty
// queue.
//
//riflint:hotpath
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// grow doubles the ring, unrolling it so the head lands at index 0.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	//riflint:allow alloc -- high-water growth only: the ring doubles when the queue is deeper than ever before, then is reused for the run
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}
