// Package kernel models the pieces of the AOS 4.3 (BSD) kernel the paper's
// data path runs through: the mbuf buffer pool (whose allocation can stall
// "an arbitrarily long time" when exhausted, §2), a device-driver and ioctl
// framework (the paper adds new ioctls to wire drivers directly together),
// and a user-process model with syscall and context-switch costs — the
// stock transfer path the paper shows cannot sustain 150 KB/s.
package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// BSD 4.3 buffer geometry.
const (
	// MbufDataSize is the payload capacity of a small mbuf.
	MbufDataSize = 112
	// ClusterSize is the payload capacity of a cluster mbuf.
	ClusterSize = 1024
	// clusterThreshold is the size above which the allocator uses
	// clusters, as m_get/m_getclr logic did.
	clusterThreshold = 256
)

// Mbuf is one buffer in a chain.
type Mbuf struct {
	Len     int
	Cluster bool
	Next    *Mbuf
}

// Cap reports the mbuf's payload capacity.
func (m *Mbuf) Cap() int {
	if m.Cluster {
		return ClusterSize
	}
	return MbufDataSize
}

// Chain is a linked list of mbufs holding one packet.
type Chain struct {
	Head *Mbuf
	// Tag carries the model payload riding in the chain (a protocol
	// packet, stream bytes, ...).
	Tag any
}

// Len reports the total payload bytes in the chain.
func (c *Chain) Len() int {
	n := 0
	for m := c.Head; m != nil; m = m.Next {
		n += m.Len
	}
	return n
}

// Mbufs reports the number of mbufs in the chain.
func (c *Chain) Mbufs() int {
	n := 0
	for m := c.Head; m != nil; m = m.Next {
		n++
	}
	return n
}

// Clusters reports how many of the chain's mbufs are clusters.
func (c *Chain) Clusters() int {
	n := 0
	for m := c.Head; m != nil; m = m.Next {
		if m.Cluster {
			n++
		}
	}
	return n
}

// PoolStats aggregates allocator accounting.
type PoolStats struct {
	Allocs        uint64
	Frees         uint64
	Failures      uint64 // AllocNoWait with an exhausted pool
	Waits         uint64 // blocking allocations that had to sleep
	SmallInUse    int
	ClustersInUse int
	SmallHigh     int
	ClustersHigh  int
}

// Pool is the kernel's shared mbuf pool. Interrupt-level code uses
// AllocNoWait (drops on exhaustion); process-level code uses Alloc, which
// sleeps until buffers return — the unbounded delay §2 warns about.
type Pool struct {
	sched         *sim.Scheduler
	smallCap      int
	clusterCap    int
	smallInUse    int
	clustersInUse int
	waiters       []*waiter
	stats         PoolStats
	// Node free lists: Free pushes a chain's mbufs here and build pops
	// them, so the steady state allocates no Mbuf objects. Chain shells
	// are NOT recycled — receivers read Chain.Tag after the sender's
	// Free (tradapter's transmit-complete can run before the receive
	// interrupt), and a recycled shell would let a later packet overwrite
	// the tag mid-flight. Shell reuse is the caller's business (see
	// AllocInto); the pool only guarantees Free never scribbles on Tag.
	freeSmall    []*Mbuf
	freeClusters []*Mbuf
}

type waiter struct {
	small, clusters int
	fn              func(*Chain)
	size            int
}

// NewPool builds a pool with the given capacities. The defaults (0,0)
// give a generously provisioned pool (4096 small, 1024 clusters).
func NewPool(sched *sim.Scheduler, smallCap, clusterCap int) *Pool {
	if smallCap <= 0 {
		smallCap = 4096
	}
	if clusterCap <= 0 {
		clusterCap = 1024
	}
	return &Pool{sched: sched, smallCap: smallCap, clusterCap: clusterCap}
}

// Stats returns a snapshot of allocator accounting.
func (p *Pool) Stats() PoolStats {
	s := p.stats
	s.SmallInUse = p.smallInUse
	s.ClustersInUse = p.clustersInUse
	return s
}

// need computes the mbuf shape for n payload bytes.
func need(n int) (small, clusters int) {
	if n <= 0 {
		return 1, 0
	}
	if n <= clusterThreshold {
		small = (n + MbufDataSize - 1) / MbufDataSize
		return small, 0
	}
	clusters = n / ClusterSize
	rem := n - clusters*ClusterSize
	if rem > clusterThreshold {
		clusters++
	} else if rem > 0 {
		small = (rem + MbufDataSize - 1) / MbufDataSize
	}
	return small, clusters
}

func (p *Pool) available(small, clusters int) bool {
	return p.smallInUse+small <= p.smallCap && p.clustersInUse+clusters <= p.clusterCap
}

// node pops a recycled mbuf of the requested kind, or allocates one on
// the cold path before the free list reaches steady state.
//
//ctmsvet:hotpath
func (p *Pool) node(cluster bool) *Mbuf {
	list := &p.freeSmall
	if cluster {
		list = &p.freeClusters
	}
	if n := len(*list); n > 0 {
		m := (*list)[n-1]
		(*list)[n-1] = nil
		*list = (*list)[:n-1]
		return m
	}
	return &Mbuf{Cluster: cluster} //ctmsvet:allow hotpath cold refill path, runs only until the node free list reaches steady state
}

func (p *Pool) build(small, clusters, n int) *Chain {
	c := &Chain{}
	p.buildInto(c, small, clusters, n)
	return c
}

//ctmsvet:hotpath
func (p *Pool) buildInto(c *Chain, small, clusters, n int) {
	p.smallInUse += small
	p.clustersInUse += clusters
	if p.smallInUse > p.stats.SmallHigh {
		p.stats.SmallHigh = p.smallInUse
	}
	if p.clustersInUse > p.stats.ClustersHigh {
		p.stats.ClustersHigh = p.clustersInUse
	}
	p.stats.Allocs++

	var head, tail *Mbuf
	left := n
	for i := 0; i < clusters+small; i++ {
		cluster := i < clusters
		l := MbufDataSize
		if cluster {
			l = ClusterSize
		}
		if left < l {
			l = left
		}
		left -= l
		m := p.node(cluster)
		m.Len = l
		if head == nil {
			head = m
		} else {
			tail.Next = m
		}
		tail = m
	}
	if head == nil {
		sim.Checkf(false, "empty chain built for %d bytes", n) //ctmsvet:allow hotpath failure branch only; need() always shapes at least one mbuf
	}
	c.Head = head
}

// AllocNoWait allocates a chain for n payload bytes, or returns nil if the
// pool is exhausted — the interrupt-time contract.
func (p *Pool) AllocNoWait(n int) *Chain {
	small, clusters := need(n)
	if !p.available(small, clusters) {
		p.stats.Failures++
		return nil
	}
	return p.build(small, clusters, n)
}

// AllocInto is AllocNoWait for a caller-owned chain shell: it fills c with
// freshly accounted mbufs instead of allocating a new Chain, or reports
// false (leaving c untouched) when the pool is exhausted. Pooled frame
// envelopes use it so steady-state forwarding allocates no chain objects.
// The shell must be empty — filling a chain that still owns buffers would
// leak them past the accounting.
//
//ctmsvet:hotpath
func (p *Pool) AllocInto(c *Chain, n int) bool {
	if c.Head != nil {
		sim.Checkf(false, "AllocInto on a chain that still holds %d mbufs", c.Mbufs())
	}
	small, clusters := need(n)
	if !p.available(small, clusters) {
		p.stats.Failures++
		return false
	}
	p.buildInto(c, small, clusters, n)
	return true
}

// Alloc allocates a chain for n payload bytes, calling fn when the
// allocation succeeds. If the pool is exhausted, the caller sleeps until
// a Free makes room (FIFO order).
func (p *Pool) Alloc(n int, fn func(*Chain)) {
	small, clusters := need(n)
	if p.available(small, clusters) && len(p.waiters) == 0 {
		fn(p.build(small, clusters, n))
		return
	}
	p.stats.Waits++
	p.waiters = append(p.waiters, &waiter{small: small, clusters: clusters, fn: fn, size: n})
}

// Free returns a chain's buffers to the pool and wakes eligible waiters.
// The mbuf nodes go onto the node free lists for reuse; the shell keeps
// its Tag and is never recycled by the pool (see the free-list comment).
func (p *Pool) Free(c *Chain) {
	if c == nil || c.Head == nil {
		return
	}
	for m := c.Head; m != nil; {
		next := m.Next
		m.Next = nil
		m.Len = 0
		if m.Cluster {
			p.clustersInUse--
			if len(p.freeClusters) < p.clusterCap {
				p.freeClusters = append(p.freeClusters, m)
			}
		} else {
			p.smallInUse--
			if len(p.freeSmall) < p.smallCap {
				p.freeSmall = append(p.freeSmall, m)
			}
		}
		m = next
	}
	c.Head = nil
	p.stats.Frees++
	sim.Checkf(p.smallInUse >= 0 && p.clustersInUse >= 0, "mbuf pool underflow")

	for len(p.waiters) > 0 {
		w := p.waiters[0]
		if !p.available(w.small, w.clusters) {
			break
		}
		p.waiters = p.waiters[1:]
		ch := p.build(w.small, w.clusters, w.size)
		// Wakeup is asynchronous, as in the real kernel.
		p.sched.After(0, func() { w.fn(ch) })
	}
}

// String summarizes pool state.
func (p *Pool) String() string {
	return fmt.Sprintf("mbufpool{small=%d/%d clusters=%d/%d waiters=%d}",
		p.smallInUse, p.smallCap, p.clustersInUse, p.clusterCap, len(p.waiters))
}
