// Command tool is outside every sim-critical package: determinism,
// the inter analyzers and dim stay silent here, while typed analyzers
// and allow validation still report.
package main

import (
	"errors"
	"time"

	"violations/internal/kernel"
)

// send leaks the chain on the size-check error path: the mbuflife
// finding.
func send(p *kernel.Pool, n int) error {
	ch := p.AllocNoWait(n)
	if ch == nil {
		return errors.New("pool exhausted")
	}
	if n > 1500 {
		return errors.New("too big")
	}
	p.Free(ch)
	return nil
}

// unchecked carries a crossing directive with no role, out of the
// inter scope.
//
//ctmsvet:crossing
func unchecked() {}

type link struct {
	RateBits int64
	MTUBytes int64
	//ctmsvet:unit furlong
	Span int64
}

func main() {
	_ = time.Now()
	l := link{MTUBytes: 1500}
	l.RateBits = l.MTUBytes //ctmsvet:allow dim
	_ = send(&kernel.Pool{}, 64)
	unchecked()
}
