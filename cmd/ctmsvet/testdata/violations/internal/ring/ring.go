// Package ring stubs the ring MAC.
package ring

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
