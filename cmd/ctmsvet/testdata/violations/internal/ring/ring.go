// Package ring stubs the ring MAC.
package ring

import "sync"

// Gauge counts frames under a lock.
type Gauge struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Peek reads the guarded field without holding mu: the locking
// finding.
func (g *Gauge) Peek() int {
	return g.n
}

// Ring is a stub ring.
type Ring struct {
	RateBits    int64
	WindowBytes int64
	// Span names an unknown base unit: a malformed unit directive.
	//
	//ctmsvet:unit furlong
	Span int64
}

// Reserve stores bytes where bits are owed: a second sim-critical dim
// finding.
func (r *Ring) Reserve() {
	r.RateBits = r.WindowBytes
}
