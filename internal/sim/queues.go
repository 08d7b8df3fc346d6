package sim

// FIFO is a first-in first-out queue whose backing array is reused for
// the whole run. Pop advances a head index instead of re-slicing, so the
// array never walks off its own end and reallocates every few items; it
// compacts only when the dead prefix dominates. The zero value is an
// empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	q.items = append(q.items, v)
}

// Pop removes and returns the head. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // drop the reference for the collector
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= 32 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// FreeList is the backing store of an object pool: a stack of recycled
// objects whose array is reused for the whole run. Get reports nil when
// the list is empty; the caller then builds a fresh object on its cold
// path. A free list belongs to one shard, like the objects it holds.
type FreeList[T any] struct {
	free []*T
}

// Get pops a recycled object, or returns nil.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return v
}

// Put returns an object the caller has cleared to the list.
func (l *FreeList[T]) Put(v *T) {
	l.free = append(l.free, v)
}
