// Package mbuflife exercises the chain-ownership analyzer: every
// *kernel.Chain from the pool must be consumed exactly once on every
// path.
package mbuflife

import (
	"errors"

	"typedfix/kernel"
)

var (
	errExhausted = errors.New("pool exhausted")
	errTooBig    = errors.New("too big")
)

const maxSize = 4096

type out struct {
	Chain *kernel.Chain
	Done  func()
}

var sink *kernel.Chain

// leakOnErrorPath is the motivating bug: the size check returns early
// and the chain is never freed on that path.
func leakOnErrorPath(p *kernel.Pool, size int) error {
	ch := p.AllocNoWait(size) // want `chain ch is never freed, returned, stored or handed off on the path reaching line \d+`
	if ch == nil {
		return errExhausted
	}
	if size > maxSize {
		return errTooBig
	}
	p.Free(ch)
	return nil
}

func doubleFree(p *kernel.Pool) {
	ch := p.AllocNoWait(64)
	if ch == nil {
		return
	}
	p.Free(ch)
	p.Free(ch) // want `chain ch freed again \(allocated at .*\)`
}

func useAfterFree(p *kernel.Pool) int {
	ch := p.AllocNoWait(64)
	if ch == nil {
		return 0
	}
	p.Free(ch)
	return ch.Len // want `chain ch used after Free`
}

// overwriteLeak drops the first chain on the floor by reassigning the
// variable while it is still owned.
func overwriteLeak(p *kernel.Pool) {
	ch := p.AllocNoWait(8) // want `chain ch is never freed, returned, stored or handed off on the path reaching line \d+`
	ch = p.AllocNoWait(16)
	if ch != nil {
		p.Free(ch)
	}
}

// ---- clean patterns: no diagnostics expected below this line ----

func freeBalanced(p *kernel.Pool, size int) error {
	ch := p.AllocNoWait(size)
	if ch == nil {
		return errExhausted
	}
	if size > maxSize {
		p.Free(ch)
		return errTooBig
	}
	p.Free(ch)
	return nil
}

func deferFree(p *kernel.Pool) int {
	ch := p.AllocNoWait(32)
	if ch == nil {
		return 0
	}
	defer p.Free(ch)
	return ch.Len // legal: defer runs after the read
}

// handOff stores the chain in a packet and hands Free to the Done
// callback — the callback owns it now.
func handOff(p *kernel.Pool) *out {
	ch := p.AllocNoWait(128)
	if ch == nil {
		return nil
	}
	o := &out{Chain: ch}
	return o
}

// doneCallback is the Packet.Done pattern: capturing the chain in a
// closure hands ownership to whoever invokes the closure.
func doneCallback(p *kernel.Pool) *out {
	ch := p.AllocNoWait(128)
	if ch == nil {
		return nil
	}
	o := &out{}
	o.Done = func() { p.Free(ch) }
	return o
}

func returned(p *kernel.Pool) *kernel.Chain {
	ch := p.AllocNoWait(256)
	if ch == nil {
		return nil
	}
	ch.Tag = 7
	return ch // caller owns it
}

func storedGlobally(p *kernel.Pool) {
	sink = p.AllocNoWait(8) // escape: package state owns it
}

// halfConsumed documents the analyzer's deliberate blind spot: the
// branches disagree about the chain's fate, so tracking stops rather
// than guessing (no finding on either path).
func halfConsumed(p *kernel.Pool, cond bool) {
	ch := p.AllocNoWait(8)
	if ch == nil {
		return
	}
	if cond {
		sink = ch
	}
}

func suppressed(p *kernel.Pool, n int) {
	ch := p.AllocNoWait(n) //ctmsvet:allow mbuflife fixture exercises the suppression path
	_ = ch
}
