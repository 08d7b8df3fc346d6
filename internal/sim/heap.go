package sim

// key is the firing key of everything the scheduler orders: wheel and
// overflow events, and lane boundaries. seq is a scheduler-wide counter
// taken when the key is armed, so (at, seq) is a total order and
// same-instant keys fire in the order they were armed.
type key struct {
	at    Time
	seq   uint64
	index int32 // position in the timedHeap holding it
}

// before reports whether k fires ahead of o.
func (k *key) before(o *key) bool {
	return k.at < o.at || k.at == o.at && k.seq < o.seq
}

// timedHeap is a binary min-heap ordered by (at, seq), keeping each
// item's index current so an item can be removed from the middle. It
// holds the overflow events and the armed lanes. Each slot carries the
// item's key beside the item, so ordering and index upkeep touch the key
// directly and the generic code only moves the items.
type timedHeap[T any] []heapSlot[T]

type heapSlot[T any] struct {
	k *key
	v T
}

// push adds v, whose firing key is k.
func (h *timedHeap[T]) push(v T, k *key) {
	*h = append(*h, heapSlot[T]{k, v})
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum. The heap must not be empty.
func (h *timedHeap[T]) pop() T { return h.remove(0) }

// remove takes out the item at index i and returns it.
func (h *timedHeap[T]) remove(i int) T {
	old := *h
	n := len(old) - 1
	v := old[i].v
	old[i] = old[n]
	old[n] = heapSlot[T]{}
	*h = old[:n]
	if i < n {
		old[i].k.index = int32(i)
		if !h.down(i) {
			h.up(i)
		}
	}
	return v
}

// up moves the item at i toward the root until its parent fires first.
func (h timedHeap[T]) up(i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.k.before(h[p].k) {
			break
		}
		h[i] = h[p]
		h[i].k.index = int32(i)
		i = p
	}
	h[i] = x
	x.k.index = int32(i)
}

// down moves the item at i toward the leaves until it fires before both
// children, and reports whether it moved; an item that stays is not
// rewritten.
func (h timedHeap[T]) down(i int) bool {
	x := h[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].k.before(h[c].k) {
			c = r
		}
		if !h[c].k.before(x.k) {
			break
		}
		h[i] = h[c]
		h[i].k.index = int32(i)
		i = c
	}
	if i == i0 {
		return false
	}
	h[i] = x
	x.k.index = int32(i)
	return true
}
