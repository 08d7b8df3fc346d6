// Package kernel models the pieces of the AOS 4.3 (BSD) kernel the paper's
// data path runs through: the mbuf buffer pool (whose allocation can stall
// "an arbitrarily long time" when exhausted, §2), interrupt levels, and a
// user-process model with syscall and context-switch costs — the stock
// transfer path the paper shows cannot sustain 150 KB/s. The paper's
// one-time ioctls that wire drivers together are direct calls between
// the drivers in the model, at no simulated cost.
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
	Failures      uint64 // AllocNoWait or AllocInto with an exhausted pool
	SmallInUse    int
	ClustersInUse int
	SmallHigh     int
	ClustersHigh  int
}

// Pool is the kernel's shared mbuf pool. Every allocation is the
// interrupt-time kind, AllocNoWait or AllocInto: on exhaustion it fails
// and the caller drops the packet.
type Pool struct {
	smallCap      int
	clusterCap    int
	smallInUse    int
	clustersInUse int
	stats         PoolStats
	// Node free lists: Free pushes a chain's mbufs here and build pops
	// them, so the steady state allocates no Mbuf objects. Chain shells
	// are not recycled by the pool: a sender Frees at tradapter's
	// transmit-complete, which can run before the receive interrupt reads
	// the packet, so a shell may be refilled only once its envelope is
	// dead. That is the envelope owner's call — the VCA's and inet's send
	// records and the router's envelopes refill their permanent shell
	// (AllocInto) after the two-phase tradapter.Outgoing.SetRecycle — and
	// the pool only guarantees Free never scribbles on Tag.
	freeSmall    []*Mbuf
	freeClusters []*Mbuf
}

// NewPool builds a pool with the given capacities. The defaults (0,0)
// give a generously provisioned pool (4096 small, 1024 clusters).
func NewPool(smallCap, clusterCap int) *Pool {
	if smallCap <= 0 {
		smallCap = 4096
	}
	if clusterCap <= 0 {
		clusterCap = 1024
	}
	return &Pool{smallCap: smallCap, clusterCap: clusterCap}
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
	return &Mbuf{Cluster: cluster}
}

func (p *Pool) build(small, clusters, n int) *Chain {
	c := &Chain{}
	p.buildInto(c, small, clusters, n)
	return c
}

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
		sim.Checkf(false, "empty chain built for %d bytes", n) // need() always shapes at least one mbuf
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

// Free returns a chain's buffers to the pool.
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
}

// String summarizes pool state.
func (p *Pool) String() string {
	return fmt.Sprintf("mbufpool{small=%d/%d clusters=%d/%d}",
		p.smallInUse, p.smallCap, p.clustersInUse, p.clusterCap)
}
