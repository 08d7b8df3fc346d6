// Package kernel is a miniature stand-in for the real mbuf pool so the
// typed fixtures compile as their own module. The analyzers match by
// package name and type name ("kernel", "Chain", "Pool"), so this stub
// exercises exactly the code paths the real tree does.
package kernel

// Chain is a stand-in mbuf chain.
type Chain struct {
	Head *byte
	Len  int
	Tag  int
}

// Pool is a stand-in fixed-buffer pool.
type Pool struct{}

// AllocNoWait returns a chain or nil when the pool is exhausted.
func (p *Pool) AllocNoWait(n int) *Chain { return &Chain{Len: n} }

// Free returns a chain to the pool.
func (p *Pool) Free(c *Chain) { c.Head = nil }
