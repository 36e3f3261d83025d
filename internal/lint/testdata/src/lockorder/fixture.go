// Package lockorder seeds a lock-order inversion (and non-inversions) for
// the lockorder analyzer: one half of the cycle is acquired directly, the
// other half only inside a callee, so the cycle is visible solely through
// the propagated acquisition summaries.
package lockorder

import "sync"

type pair struct {
	mu1 sync.Mutex
	mu2 sync.Mutex
	n   int
}

// lockB acquires mu2 on its own; harmless in isolation.
func (p *pair) lockB() {
	p.mu2.Lock()
	defer p.mu2.Unlock()
	p.n++
}

// aThenB establishes the order mu1 → mu2 through a callee: the mu2
// acquisition is invisible lexically and only the summary carries it.
func (p *pair) aThenB() {
	p.mu1.Lock()
	defer p.mu1.Unlock()
	p.lockB() // want "potential deadlock: acquiring lockorder.pair.mu2 while holding lockorder.pair.mu1"
}

// bThenA closes the cycle with a direct inverted acquisition.
func (p *pair) bThenA() {
	p.mu2.Lock()
	defer p.mu2.Unlock()
	p.mu1.Lock() // want "potential deadlock: acquiring lockorder.pair.mu1 while holding lockorder.pair.mu2"
	p.n++
	p.mu1.Unlock()
}

// consistent acquires in one global order everywhere; no cycle.
type consistent struct {
	outer sync.Mutex
	inner sync.Mutex
	n     int
}

func (c *consistent) first() {
	c.outer.Lock()
	defer c.outer.Unlock()
	c.second()
}

func (c *consistent) second() {
	c.inner.Lock()
	defer c.inner.Unlock()
	c.n++
}

// chain holds two locks of the same class (instance chaining along a linked
// list). Class-level ordering ignores same-class edges.
type chain struct {
	mu   sync.Mutex
	prev *chain
	n    int
}

func (c *chain) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prev != nil {
		return c.prev.get()
	}
	return c.n
}
