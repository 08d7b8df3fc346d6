package kernel

import (
	"testing"
	"testing/quick"
)

func TestNeedShapes(t *testing.T) {
	cases := []struct {
		n               int
		small, clusters int
	}{
		{0, 1, 0},
		{1, 1, 0},
		{112, 1, 0},
		{113, 2, 0},
		{256, 3, 0},  // at threshold: still small mbufs
		{257, 0, 1},  // above threshold: one cluster covers it
		{1024, 0, 1}, // exactly one cluster
		{1025, 1, 1}, // one cluster + 1 byte remainder in a small mbuf
		{2000, 0, 2}, // one cluster + 976 remainder promotes to a cluster
		{2048, 0, 2},
	}
	for _, c := range cases {
		s, cl := need(c.n)
		if s != c.small || cl != c.clusters {
			t.Errorf("need(%d) = (%d,%d), want (%d,%d)", c.n, s, cl, c.small, c.clusters)
		}
	}
}

func TestAllocChainLength(t *testing.T) {
	p := NewPool(0, 0)
	for _, n := range []int{1, 100, 112, 500, 1024, 2000, 9000} {
		c := p.AllocNoWait(n)
		if c == nil {
			t.Fatalf("alloc %d failed on a fresh pool", n)
		}
		if c.Len() != n {
			t.Fatalf("chain for %d bytes has Len %d", n, c.Len())
		}
		p.Free(c)
	}
	st := p.Stats()
	if st.SmallInUse != 0 || st.ClustersInUse != 0 {
		t.Fatalf("pool should drain to zero: %+v", st)
	}
}

func TestAllocNoWaitExhaustion(t *testing.T) {
	p := NewPool(4, 2)
	a := p.AllocNoWait(2000) // needs 2 clusters
	if a == nil {
		t.Fatal("first alloc should succeed")
	}
	if p.AllocNoWait(2000) != nil {
		t.Fatal("pool exhausted, AllocNoWait must fail")
	}
	if p.Stats().Failures != 1 {
		t.Fatalf("failure accounting: %+v", p.Stats())
	}
	p.Free(a)
	if p.AllocNoWait(2000) == nil {
		t.Fatal("after free, alloc should succeed again")
	}
}

func TestHighWaterMark(t *testing.T) {
	p := NewPool(0, 0)
	a := p.AllocNoWait(2048)
	b := p.AllocNoWait(2048)
	p.Free(a)
	p.Free(b)
	if p.Stats().ClustersHigh != 4 {
		t.Fatalf("high water should be 4 clusters: %+v", p.Stats())
	}
}

// Property: alloc/free round-trips never corrupt pool accounting, and
// chain lengths always equal the request.
func TestPoolProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := NewPool(0, 0)
		var chains []*Chain
		for _, s := range sizes {
			n := int(s % 8192)
			c := p.AllocNoWait(n)
			if c == nil {
				continue
			}
			if c.Len() != n {
				return false
			}
			chains = append(chains, c)
		}
		for _, c := range chains {
			p.Free(c)
		}
		st := p.Stats()
		return st.SmallInUse == 0 && st.ClustersInUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChainHelpers(t *testing.T) {
	p := NewPool(0, 0)
	c := p.AllocNoWait(2100) // 2 clusters + 1 small (52 bytes rem <= 256)
	if c.Mbufs() != 3 {
		t.Fatalf("chain shape: %d mbufs", c.Mbufs())
	}
	if c.Clusters() != 2 {
		t.Fatalf("chain clusters: %d", c.Clusters())
	}
	c.Tag = "hello"
	if c.Tag != "hello" {
		t.Fatal("tag lost")
	}
	if (&Chain{}).Len() != 0 {
		t.Fatal("empty chain should have zero length")
	}
	p.Free(c)
	p.Free(nil) // must be safe
}

func TestDoubleFreeSafe(t *testing.T) {
	p := NewPool(0, 0)
	c := p.AllocNoWait(100)
	p.Free(c)
	p.Free(c) // head is nil after first free; second free is a no-op
	if st := p.Stats(); st.SmallInUse != 0 {
		t.Fatalf("double free corrupted pool: %+v", st)
	}
}

// TestAllocIntoFillsCallerShell pins the pooled-envelope contract:
// AllocInto fills a caller-owned shell with the same mbuf shape
// AllocNoWait would build, reports exhaustion with false (shell
// untouched, failure counted), and its Free→AllocInto steady state
// recycles nodes instead of allocating.
func TestAllocIntoFillsCallerShell(t *testing.T) {
	p := NewPool(0, 0)
	c := &Chain{}
	for _, n := range []int{1, 112, 500, 2000} {
		if !p.AllocInto(c, n) {
			t.Fatalf("AllocInto(%d) failed on a fresh pool", n)
		}
		ref := p.AllocNoWait(n)
		if c.Len() != ref.Len() || c.Mbufs() != ref.Mbufs() || c.Clusters() != ref.Clusters() {
			t.Fatalf("AllocInto(%d) shaped %d bytes / %d mbufs / %d clusters; AllocNoWait shaped %d / %d / %d",
				n, c.Len(), c.Mbufs(), c.Clusters(), ref.Len(), ref.Mbufs(), ref.Clusters())
		}
		p.Free(ref)
		p.Free(c)
	}

	// Exhaustion: the shell stays empty and the failure is counted.
	tiny := NewPool(1, 1)
	hog := tiny.AllocNoWait(2000)
	if hog != nil {
		t.Fatal("2-cluster alloc should fail on a 1-cluster pool")
	}
	big := tiny.AllocNoWait(1024)
	if big == nil {
		t.Fatal("1-cluster alloc should fit")
	}
	before := tiny.Stats().Failures
	if tiny.AllocInto(c, 1024) {
		t.Fatal("AllocInto succeeded on an exhausted pool")
	}
	if c.Head != nil {
		t.Fatal("failed AllocInto touched the shell")
	}
	if got := tiny.Stats().Failures; got != before+1 {
		t.Fatalf("failures %d; want %d", got, before+1)
	}
	tiny.Free(big)
}

// TestAllocIntoSteadyStateZeroAlloc pins the node free lists: once warm,
// an AllocInto→Free cycle on a reused shell allocates no mbuf objects
// and no chains — the kernel end of the zero-alloc forwarding chain.
func TestAllocIntoSteadyStateZeroAlloc(t *testing.T) {
	p := NewPool(0, 0)
	c := &Chain{}
	for _, n := range []int{100, 1024, 2000} {
		n := n
		if !p.AllocInto(c, n) {
			t.Fatalf("warmup AllocInto(%d) failed", n)
		}
		p.Free(c)
		if got := testing.AllocsPerRun(200, func() {
			if !p.AllocInto(c, n) {
				t.Fatalf("steady-state AllocInto(%d) failed", n)
			}
			p.Free(c)
		}); got != 0 {
			t.Fatalf("AllocInto(%d)/Free cycle allocates %.1f per op; want 0", n, got)
		}
	}
}
