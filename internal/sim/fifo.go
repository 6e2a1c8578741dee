package sim

// FIFO is a first-in first-out queue on a ring buffer. Unlike the
// q = q[1:] idiom, popping never strands the slice's capacity, so a
// queue cycling a bounded population stops allocating once it has grown
// to its peak depth. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		size := 2 * len(q.buf)
		if size < 8 {
			size = 8
		}
		grown := make([]T, size)
		for i := 0; i < q.n; i++ {
			grown[i] = q.At(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Front returns the head item without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front of empty FIFO")
	}
	return q.buf[q.head]
}

// Pop removes and returns the head item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.Front()
	var zero T
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// At returns the i-th item from the head (0 is the head).
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// Clear empties the queue, keeping its capacity.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = zero
	}
	q.head, q.n = 0, 0
}
