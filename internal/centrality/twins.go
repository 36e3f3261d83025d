package centrality

import (
	"slices"
	"sync"

	"domainnet/internal/engine"
)

// twins is the twin quotient the BFS measures share. Two
// non-isolated nodes with identical neighbor lists (open twins) are swapped
// by a graph automorphism, so every other node lies at the same distance
// from both over the same number of shortest paths, and neither is ever
// interior to a shortest path leaving the other. In a simple undirected
// graph a class is an independent set, and two classes are either joined by
// every member pair or by none: the graph is a blow-up of its quotient.
//
//   - Brandes (see brandesQuotient) traverses the quotient: a class stands
//     for its members through its size, and only the source's own class is
//     split into the source and its twins. One traversal from a class's
//     representative, weighted by the class size, is the class's exact
//     contribution (δ_s(v) = δ_s'(v) for v ∉ {s, s'} and δ_s(s') = 0).
//   - Harmonic: twins have equal Σ 1/d, so the representative's sum is
//     copied to its twins.
//
// On the SB benchmark the 5,339 nodes fall into 132 classes joined by 236
// class edges (the graph has 7,148), so exact scoring runs 132 traversals of
// the quotient instead of 132 traversals of the graph.
type twins struct {
	reps    []int32   // each class's smallest node id, ascending
	weight  []float64 // weight[i] is the size of class i
	classOf []int32   // classOf[u] is the index of u's class
	off     []int32   // class i's distinct neighbor classes are adj[off[i]:off[i+1]]
	adj     []int32
}

// twinClasses builds the twin quotient of g in O(n+m). Nodes below split
// are never grouped with nodes at or above it (the endpoint classes of
// engine.Opts.EndpointsValuesOnly); split 0 ignores endpoint classes.
// Isolated nodes stay singletons: they share the empty list across
// components. Lists are compared as given, so equal sets listed in different
// orders only lose grouping. A class is exactly the nodes with one list, so
// the quotient is a function of the graph alone: carriedTwins rebuilds it
// from the previous round's classes, and a hash collision costs a longer
// chain walk, never a different grouping.
func twinClasses(g Graph, split int) twins {
	t := newTwins(g.NumNodes())
	var gr grouper
	for u := range int32(len(t.classOf)) {
		t.classOf[u] = gr.class(&t, g, u, split)
	}
	t.link(g)
	return t
}

// carriedTwins is twinClasses(g, 0) derived from the previous round's
// classes (the Class of each carry entry) instead of from every list. A
// clean component is, list for list, the image of a previous one, so its
// classes are the previous classes remapped through plan.PrevOf; only the
// affected nodes are hashed and grouped afresh. Walking the nodes in order
// and opening a class at its first member numbers the classes by smallest
// member, as twinClasses does, so the two quotients are identical.
func carriedTwins(g Graph, plan *engine.DeltaPlan, prev engine.Carry) twins {
	t := newTwins(g.NumNodes())
	// renum maps a previous class to its new index + 1. Classes number
	// fewer than the nodes, but how many the carry does not say.
	rp := engine.Int32s(len(prev))
	defer engine.PutInt32s(rp)
	renum := *rp
	clear(renum)
	var gr grouper
	for u, p := range plan.PrevOf {
		if p < 0 {
			t.classOf[u] = gr.class(&t, g, int32(u), 0)
			continue
		}
		k := prev[p].Class
		if renum[k] == 0 {
			renum[k] = t.open(int32(u)) + 1
		} else {
			t.weight[renum[k]-1]++
		}
		t.classOf[u] = renum[k] - 1
	}
	t.link(g)
	return t
}

// grouper assigns nodes to twin classes by their lists: first maps a list
// hash to the first class with that hash, and next chains the later classes
// whose lists collide with it.
type grouper struct {
	first map[uint64]int32
	next  map[int32]int32
}

// class returns u's class in t, opening a new one when no earlier class has
// u's list and side of split.
func (gr *grouper) class(t *twins, g Graph, u int32, split int) int32 {
	nb := g.Neighbors(u)
	if len(nb) == 0 {
		return t.open(u)
	}
	low := int(u) < split
	h := hashList(nb, low)
	i, seen := gr.first[h]
	if !seen {
		if gr.first == nil {
			gr.first = make(map[uint64]int32)
		}
		c := t.open(u)
		gr.first[h] = c
		return c
	}
	for {
		if r := t.reps[i]; (int(r) < split) == low && slices.Equal(g.Neighbors(r), nb) {
			t.weight[i]++
			return i
		}
		j, more := gr.next[i]
		if !more {
			if gr.next == nil {
				gr.next = make(map[int32]int32)
			}
			c := t.open(u)
			gr.next[i] = c
			return c
		}
		i = j
	}
}

// twinsPool recycles the arrays of quotients: one lives for one scoring
// call, and its arrays are sized by the graph (classOf) or its classes.
var twinsPool = sync.Pool{New: func() any { return new(twins) }}

// newTwins returns an empty quotient of n nodes on pooled arrays, which
// release hands back.
func newTwins(n int) twins {
	p := twinsPool.Get().(*twins)
	return twins{reps: p.reps[:0], weight: p.weight[:0], classOf: slices.Grow(p.classOf[:0], n)[:n],
		off: p.off[:0], adj: p.adj[:0]}
}

// release hands t's arrays to a later newTwins; t must not be used
// afterwards. A quotient never released is collected as usual.
func (t *twins) release() {
	p := *t
	twinsPool.Put(&p)
}

// open starts a class with representative u and returns its index.
func (t *twins) open(u int32) int32 {
	t.reps = append(t.reps, u)
	t.weight = append(t.weight, 1)
	return int32(len(t.reps) - 1)
}

// link builds each class's neighbor classes from its representative's list,
// a stamp array keeping the first of the several members a neighbor class
// has.
func (t *twins) link(g Graph) {
	sp := engine.Int32s(len(t.reps))
	defer engine.PutInt32s(sp)
	stamp := *sp
	clear(stamp)
	t.off = append(t.off[:0], 0)
	for i, r := range t.reps {
		for _, w := range g.Neighbors(r) {
			if c := t.classOf[w]; stamp[c] != int32(i)+1 {
				stamp[c] = int32(i) + 1
				t.adj = append(t.adj, c)
			}
		}
		t.off = append(t.off, int32(len(t.adj)))
	}
}

// members expands one score per class into one per node.
func (t *twins) members(byClass []float64) []float64 {
	out := make([]float64, len(t.classOf))
	for u, k := range t.classOf {
		out[u] = byClass[k]
	}
	return out
}

// carry pairs each node's raw score with its class, for the next round.
func (t *twins) carry(raw []float64) engine.Carry {
	c := make(engine.Carry, len(raw))
	for u, r := range raw {
		c[u] = engine.CarryNode{Raw: r, Class: t.classOf[u]}
	}
	return c
}

// neighbors returns the distinct neighbor classes of class c.
func (t *twins) neighbors(c int32) []int32 { return t.adj[t.off[c]:t.off[c+1]] }

// hashList is FNV-1a over a neighbor list's ids and the endpoint class. It is
// fixed rather than seeded so every process groups a graph identically: the
// grouping decides float summation order, and replicas must agree bit for bit.
func hashList(nb []int32, low bool) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if low {
		h = (h ^ 1) * prime
	}
	for _, v := range nb {
		h = (h ^ uint64(uint32(v))) * prime
	}
	return h
}
