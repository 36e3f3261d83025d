package centrality

import "slices"

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
// orders only lose grouping, and lists merge only after slices.Equal confirms
// them — a hash collision costs grouping, never exactness.
func twinClasses(g Graph, split int) twins {
	n := g.NumNodes()
	t := twins{classOf: make([]int32, n)}
	class := make(map[uint64]int32) // list hash → index of its first class
	for u := range int32(n) {
		nb := g.Neighbors(u)
		if len(nb) > 0 {
			h := hashList(nb, int(u) < split)
			if i, seen := class[h]; seen {
				r := t.reps[i]
				if (int(r) < split) == (int(u) < split) && slices.Equal(g.Neighbors(r), nb) {
					t.classOf[u] = i
					t.weight[i]++
					continue
				}
			} else {
				class[h] = int32(len(t.reps))
			}
		}
		t.classOf[u] = int32(len(t.reps))
		t.reps = append(t.reps, u)
		t.weight = append(t.weight, 1)
	}
	// Each class's neighbor classes from its representative's list, a stamp
	// array keeping the first of the several members a neighbor class has.
	stamp := make([]int32, len(t.reps))
	t.off = make([]int32, len(t.reps)+1)
	for i, r := range t.reps {
		for _, w := range g.Neighbors(r) {
			if c := t.classOf[w]; stamp[c] != int32(i)+1 {
				stamp[c] = int32(i) + 1
				t.adj = append(t.adj, c)
			}
		}
		t.off[i+1] = int32(len(t.adj))
	}
	return t
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
