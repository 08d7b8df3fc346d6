// Package violations is a scratch module for ctmsvet's selection
// goldens: each tier's analyzers have one planted finding here, some
// in scope and some deliberately out of it.
package violations

import "time"

// Phase is a lifecycle enum.
//
//ctmsvet:enum
type Phase int

const (
	Idle Phase = iota
	Running
	Done
)

// Describe misses Done: the exhaustive finding.
func Describe(p Phase) string {
	switch p {
	case Idle:
		return "idle"
	case Running:
		return "running"
	}
	return "?"
}

// Stamp reads the wall clock, which determinism only forbids in the
// sim-critical packages, so nothing is reported here.
func Stamp() int64 { return time.Now().UnixNano() }

// Scratch allocates, and no analyzer reports it: allocation is held by
// the measured budgets (make allocs), not by a lint rule, so nothing is
// reported here either.
func Scratch(n int) []byte {
	return make([]byte, n)
}

//ctmsvet:allow nosuch this analyzer does not exist
var unknownAllow = 1

//ctmsvet:allow determinism
var reasonlessAllow = 2

// Options carries a rate in bits.
type Options struct {
	LinkBits int64
}

// Frame carries a size in bytes.
type Frame struct {
	SizeBytes int64
}

// Apply stores bytes where bits are owed: the root-package dim finding.
func Apply(o *Options, f Frame) {
	o.LinkBits = f.SizeBytes
}
