package centrality

import (
	"math"
	"math/rand"

	"domainnet/internal/engine"
)

// This file implements the second approximation the paper cites (§3.3):
// Riondato and Kornaropoulos' shortest-path sampling estimator, which gives
// (ε, δ) guarantees — every node's estimated betweenness fraction is within
// ε of the truth with probability 1-δ. DomainNet defaults to the faster
// source-sampling scheme (ApproxBetweenness); this estimator exists for
// callers who want an accuracy contract and for the cross-validation tests.
//
// Sampling is inherently sequential (each sample consumes random bits in
// order), so the estimator runs on one goroutine — but all BFS scratch comes
// from the shared arena pool, so repeated calls allocate almost nothing.

// ApproxBetweennessEpsilon estimates the betweenness fraction of every node
// by sampling r shortest paths between random node pairs and counting how
// often each node appears as an interior vertex; r is the VC-dimension
// bound (c/ε²)(⌊log₂(VD−2)⌋ + 1 + ln(1/δ)) with VD the vertex diameter.
// opts.Epsilon defaults to 0.05, and δ is 0.1. The returned scores
// approximate Betweenness(g)/n(n-1); multiply by n(n-1) to compare with raw
// scores, or rank directly.
func ApproxBetweennessEpsilon(g Graph, opts engine.Opts) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n < 3 {
		return out
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 0.05
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	a := engine.AcquireArena(n)
	defer a.Release()

	vd := estimateVertexDiameter(g, rng, a)
	logTerm := 0.0
	if vd > 2 {
		logTerm = math.Floor(math.Log2(float64(vd - 2)))
	}
	// The universal constant of the range-space bound; 0.5 is the value
	// used in practice (Riondato & Kornaropoulos, Data Min Knowl Disc '16).
	const c = 0.5
	// The failure probability δ: estimates hold with probability 0.9.
	const delta = 0.1
	r := int(math.Ceil((c / (eps * eps)) * (logTerm + 1 + math.Log(1/delta))))
	if r < 1 {
		r = 1
	}

	dist, sigma := a.Dist, a.Sigma
	inc := 1.0 / float64(r)

	for i := 0; i < r; i++ {
		// One cancellation poll per sampled pair — each pair costs a (often
		// truncated) BFS, so this is the between-pivots granularity.
		if opts.Cancelled() {
			return out
		}
		// Sample an ordered pair of *distinct* nodes; skipping equal pairs
		// while still counting them in r would deflate every estimate by a
		// factor (n-1)/n.
		s := int32(rng.Intn(n))
		t := int32(rng.Intn(n - 1))
		if t >= s {
			t++
		}
		// BFS from s with path counting, stopping once t's level finishes.
		// Every node whose dist is set enters the queue, so the queue is
		// the exact set to reset before the next sample.
		a.ResetTouched()
		dist[s] = 1
		sigma[s] = 1
		a.Queue = append(a.Queue, s)
		found := false
		tLevel := int32(0)
		for qi := 0; qi < len(a.Queue); qi++ {
			v := a.Queue[qi]
			if found && dist[v] >= tLevel {
				break // all shortest paths to t are complete
			}
			dv := dist[v]
			for _, w := range g.Neighbors(v) {
				if dist[w] == 0 {
					dist[w] = dv + 1
					a.Queue = append(a.Queue, w)
					if w == t {
						found = true
						tLevel = dv + 1
					}
				}
				if dist[w] == dv+1 {
					sigma[w] += sigma[v]
				}
			}
		}
		if !found {
			continue // t unreachable: empty path sample
		}
		// Walk one shortest path from t back to s, choosing each
		// predecessor with probability proportional to its path count —
		// a uniform sample over all shortest s-t paths.
		v := t
		for v != s {
			var pick int32 = -1
			total := 0.0
			dv := dist[v]
			for _, w := range g.Neighbors(v) {
				if dist[w] == dv-1 && sigma[w] > 0 {
					total += sigma[w]
					if rng.Float64()*total < sigma[w] {
						pick = w
					}
				}
			}
			if pick < 0 {
				break // defensive; cannot happen on a consistent BFS tree
			}
			if pick != s {
				out[pick] += inc
			}
			v = pick
		}
	}
	return out
}

// estimateVertexDiameter upper-bounds the vertex diameter (number of nodes
// on the longest shortest path) with the standard 2-BFS heuristic: BFS from
// a random node, then BFS from the farthest node found; the sum of the two
// eccentricities bounds the diameter within a factor of 2.
func estimateVertexDiameter(g Graph, rng *rand.Rand, a *engine.Arena) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	s := int32(rng.Intn(n))
	far, ecc1 := bfsFarthest(g, s, a)
	_, ecc2 := bfsFarthest(g, far, a)
	return ecc1 + ecc2 + 1
}

// bfsFarthest returns the farthest node reachable from s and its distance,
// using the arena's dist/queue buffers (+1 distance offset).
func bfsFarthest(g Graph, s int32, a *engine.Arena) (int32, int) {
	a.ResetTouched()
	dist := a.Dist
	dist[s] = 1
	a.Queue = append(a.Queue, s)
	far, best := s, int32(1)
	for qi := 0; qi < len(a.Queue); qi++ {
		v := a.Queue[qi]
		if dist[v] > best {
			best = dist[v]
			far = v
		}
		dv := dist[v]
		for _, w := range g.Neighbors(v) {
			if dist[w] == 0 {
				dist[w] = dv + 1
				a.Queue = append(a.Queue, w)
			}
		}
	}
	return far, int(best - 1)
}
