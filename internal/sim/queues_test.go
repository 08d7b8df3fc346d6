package sim

import "testing"

// TestFIFOOrderAcrossCompaction interleaves pushes and pops so the head
// index crosses the compaction threshold many times, and checks strict
// FIFO order, that popped slots drop their references, and that a
// steady push/pop cycle reuses the backing array.
func TestFIFOOrderAcrossCompaction(t *testing.T) {
	var q FIFO[*int]
	vals := make([]int, 1000)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 20 && next < len(vals); i++ {
			vals[next] = next
			q.Push(&vals[next])
			next++
		}
		for i := 0; i < 15 && q.Len() > 0; i++ {
			if got := *q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := *q.Pop(); got != want {
			t.Fatalf("draining: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
	for i, p := range q.items[:cap(q.items)] {
		if p != nil {
			t.Fatalf("slot %d still references item %d after draining", i, *p)
		}
	}
	v := 7
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 40; i++ {
			q.Push(&v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("warm push/pop cycle allocated %v times, want 0", allocs)
	}
}

func TestFreeListReusesLastPut(t *testing.T) {
	var l FreeList[int]
	if l.Get() != nil {
		t.Fatal("an empty free list must report nil")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || l.Get() != nil {
		t.Fatal("free list must hand back the most recently put object first")
	}
	if l.free[:cap(l.free)][0] != nil || l.free[:cap(l.free)][1] != nil {
		t.Fatal("popped slots must drop their references")
	}
}
