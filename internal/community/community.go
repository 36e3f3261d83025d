// Package community implements parameter-free community detection on the
// DomainNet graph via label propagation, and uses it to estimate how many
// distinct meanings a homograph has — the extension the paper sketches in
// §6 ("we are investigating the role of community detection algorithms on
// discovery of meanings of values in data lake tables"; a community
// represents one meaning, e.g. animal vs. car model).
//
// Label propagation needs no prior knowledge of the number of communities,
// which §3.3 identifies as the blocking requirement for classic community
// detection in lakes. On the bipartite graph, attribute nodes of one
// semantic type share many values and converge to one label; a homograph's
// attributes keep the labels of their own types, so the number of distinct
// labels among a value's attribute neighbors estimates its meaning count.
package community

import "math/rand"

// Graph is the adjacency view label propagation needs (satisfied by
// bipartite.Graph).
type Graph interface {
	NumNodes() int
	Neighbors(u int32) []int32
}

// Options configure label propagation.
type Options struct {
	// Seed drives the node-visit shuffling; fixed seeds give deterministic
	// communities.
	Seed int64
}

// maxIterations bounds the sweeps over all nodes; propagation almost always
// converges much earlier.
const maxIterations = 100

// Result holds a community assignment.
type Result struct {
	// Labels maps each node to its community id; ids are compacted to
	// 0..NumCommunities-1.
	Labels []int32
	// NumCommunities is the number of distinct labels.
	NumCommunities int
	// Iterations is how many sweeps ran before convergence.
	Iterations int
}

// LabelPropagation runs synchronous-free (asynchronous) label propagation:
// every node starts in its own community and repeatedly adopts the most
// frequent label among its neighbors, breaking ties toward the smallest
// label for determinism, until a full sweep changes nothing.
func LabelPropagation(g Graph, opts Options) *Result {
	n := g.NumNodes()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	order := rng.Perm(n)

	counts := make(map[int32]int)
	iters := 0
	for ; iters < maxIterations; iters++ {
		changed := false
		for _, oi := range order {
			u := int32(oi)
			nb := g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			for k := range counts {
				delete(counts, k)
			}
			for _, v := range nb {
				counts[labels[v]]++
			}
			best := labels[u]
			bestCount := counts[best] // 0 when no neighbor shares u's label
			for l, c := range counts {
				if c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			if best != labels[u] {
				labels[u] = best
				changed = true
			}
		}
		if !changed {
			iters++
			break
		}
	}

	// Compact label ids.
	compact := make(map[int32]int32)
	for i, l := range labels {
		id, ok := compact[l]
		if !ok {
			id = int32(len(compact))
			compact[l] = id
		}
		labels[i] = id
	}
	return &Result{Labels: labels, NumCommunities: len(compact), Iterations: iters}
}

// BipartiteGraph is the subset of bipartite.Graph the meaning estimator
// needs.
type BipartiteGraph interface {
	Graph
	NumValues() int
}

// MeaningCounts estimates the number of distinct meanings of every value
// node as the number of distinct communities among its attribute neighbors.
// Values with one meaning yield 1; homographs bridging k semantic types
// yield k (paper §6: a community represents a meaning for a value).
func MeaningCounts(g BipartiteGraph, r *Result) []int {
	nVal := g.NumValues()
	out := make([]int, nVal)
	seen := make(map[int32]struct{})
	for u := 0; u < nVal; u++ {
		for k := range seen {
			delete(seen, k)
		}
		for _, a := range g.Neighbors(int32(u)) {
			seen[r.Labels[a]] = struct{}{}
		}
		out[u] = len(seen)
	}
	return out
}

// Modularity computes the (unipartite-form) Newman modularity of a
// community assignment — a sanity metric for tests and ablations. Values
// near 0 mean no community structure; well-clustered lakes score higher.
func Modularity(g Graph, r *Result) float64 {
	n := g.NumNodes()
	var m2 float64 // 2m = sum of degrees
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		deg[u] = float64(len(g.Neighbors(int32(u))))
		m2 += deg[u]
	}
	if m2 == 0 {
		return 0
	}
	// Q = (1/2m) Σ_uv [A_uv - d_u d_v / 2m] δ(c_u, c_v)
	// Split into the edge term and the degree term aggregated per community.
	var edgeTerm float64
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if r.Labels[u] == r.Labels[v] {
				edgeTerm++
			}
		}
	}
	degPerCom := make([]float64, r.NumCommunities)
	for u := 0; u < n; u++ {
		degPerCom[r.Labels[u]] += deg[u]
	}
	var degTerm float64
	for _, d := range degPerCom {
		degTerm += d * d
	}
	return edgeTerm/m2 - degTerm/(m2*m2)
}
