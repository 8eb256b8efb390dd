package sim

// FIFO is a first-in first-out queue that reuses its backing array. Pop
// advances a head index and zeroes the slot instead of reslicing
// (q = q[1:] would pin the consumed prefix, and everything it
// references, and reallocate on every burst); the array is rewound when
// the queue empties and the live region copied down once the dead
// prefix dominates. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// fifoCompactAt is the dead-prefix length below which Pop never copies,
// so short bursts never pay for a copy-down.
const fifoCompactAt = 32

// Push appends v.
func (f *FIFO[T]) Push(v T) { f.buf = append(f.buf, v) }

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Pop removes and returns the oldest item.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if f.head == len(f.buf) {
		return zero, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.buf):
		f.buf, f.head = f.buf[:0], 0
	case f.head > fifoCompactAt && f.head*2 >= len(f.buf):
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	return v, true
}

// PopBack removes and returns the newest item: the far end from Pop, so
// a work-stealing thief and the queue's owner consume a backlog from
// opposite ends.
func (f *FIFO[T]) PopBack() (T, bool) {
	var zero T
	n := len(f.buf)
	if f.head == n {
		return zero, false
	}
	v := f.buf[n-1]
	f.buf[n-1] = zero
	f.buf = f.buf[:n-1]
	if f.head == n-1 {
		f.buf, f.head = f.buf[:0], 0
	}
	return v, true
}

// Drain removes and returns every queued item, oldest first. The queue
// keeps no reference to the returned slice.
func (f *FIFO[T]) Drain() []T {
	out := f.buf[f.head:]
	f.buf, f.head = nil, 0
	return out
}
