// Package kernel stubs the mbuf pool.
package kernel

// Chain is a stub mbuf chain.
type Chain struct {
	Len int
}

// Pool is a stub mbuf pool.
type Pool struct{}

// AllocNoWait returns a chain or nil.
func (p *Pool) AllocNoWait(n int) *Chain {
	if n < 0 {
		return nil
	}
	return &Chain{Len: n}
}

// Free returns the chain to the pool.
func (p *Pool) Free(ch *Chain) { ch.Len = 0 }
