package centrality

import "slices"

// twins is the source plan every exact BFS measure shares. Two non-isolated
// nodes s, s' with identical neighbor lists (open twins) are swapped by a
// graph automorphism, so every other node lies at the same distance from
// both over the same number of shortest paths, and neither is ever interior
// to a shortest path leaving the other. One traversal from a class's
// representative therefore stands in for the whole class:
//
//   - Brandes: δ_s(v) = δ_s'(v) for v ∉ {s, s'} and δ_s(s') = 0, so the
//     representative's dependencies weighted by the class size are the
//     class's exact contribution.
//   - Harmonic: twins have equal Σ 1/d, so the representative's sum is
//     copied to its twins.
//
// On the SB benchmark the 5,339 nodes fall into 132 classes, so exact scoring
// costs O(c·m) for c classes instead of O(n·m).
type twins struct {
	reps   []int32   // each class's smallest node id, ascending
	weight []float64 // weight[i] is the size of the class of reps[i]
	repOf  []int32   // repOf[u] is the representative of u's class
}

// twinClasses groups the nodes of g into twin classes in O(n+m). Nodes below
// split are never grouped with nodes at or above it (the endpoint classes of
// engine.Opts.EndpointsValuesOnly); split 0 ignores endpoint classes.
// Isolated nodes stay singletons: they share the empty list across
// components. Lists are compared as given, so equal sets listed in different
// orders only lose grouping, and lists merge only after slices.Equal confirms
// them — a hash collision costs grouping, never exactness.
func twinClasses(g Graph, split int) twins {
	n := g.NumNodes()
	t := twins{repOf: make([]int32, n)}
	class := make(map[uint64]int32) // list hash → index of its first class
	for u := range int32(n) {
		t.repOf[u] = u
		nb := g.Neighbors(u)
		if len(nb) > 0 {
			h := hashList(nb, int(u) < split)
			if i, seen := class[h]; seen {
				r := t.reps[i]
				if (int(r) < split) == (int(u) < split) && slices.Equal(g.Neighbors(r), nb) {
					t.repOf[u] = r
					t.weight[i]++
					continue
				}
			} else {
				class[h] = int32(len(t.reps))
			}
		}
		t.reps = append(t.reps, u)
		t.weight = append(t.weight, 1)
	}
	return t
}

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
