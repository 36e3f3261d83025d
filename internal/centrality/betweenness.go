// Package centrality implements the network measures DomainNet ranks value
// nodes by (paper §3.3): betweenness centrality — exact (Brandes) and
// approximate via source sampling (after Geisberger, Sanders, Schultes) —
// and the bipartite local clustering coefficient of Eq. 1.
//
// All algorithms operate on the minimal engine.Graph interface so they run
// unchanged over the bipartite DomainNet graph, the tripartite row variant,
// and the unipartite co-occurrence graph. Every measure takes the single
// engine.Opts struct and is exported as an engine.Scorer value (see
// scorers.go), which the detector's measure table points at. Exact and
// sampled Brandes share one kernel that traverses the twin quotient, one
// node per class of nodes with identical neighbor lists (see twins). The
// delta scorers carry the quotient in their engine.Carry, one class per
// node, and a delta regroups only the nodes it affects (carriedTwins). BFS
// scratch state comes from the shared per-worker engine.Arena pool: one
// arena per worker, reused across all of that worker's sources, instead of
// per-source (or per-call) heap allocation.
package centrality

import (
	"math/rand"

	"domainnet/internal/engine"
)

// Graph is the read-only adjacency view the centrality algorithms need.
// It is an alias of engine.Graph; neighbor slices must not be mutated and
// need not be sorted.
type Graph = engine.Graph

// Betweenness computes exact betweenness centrality for every node using
// Brandes' algorithm: one breadth-first search per source with shortest-path
// counting, followed by reverse-order dependency accumulation. Sources are
// twin classes weighted by their size, and each search runs over the twin
// quotient (see twins), so runtime is O(c·q) for c classes joined by q class
// edges; classes are sharded across opts.Workers, one reused arena each.
func Betweenness(g Graph, opts engine.Opts) []float64 {
	t := quotient(g, opts)
	defer t.release()
	bc := t.members(exactBetweenness(t, nil, opts))
	if opts.Normalized {
		normalize(bc, g.NumNodes())
	}
	return bc
}

// exactBetweenness is the one source plan of every exact Brandes entry point:
// raw scores, one per class, from the representatives of g's twin quotient
// t. A non-nil affected mask skips the classes outside it; since it filters
// inside the shards, the shard boundaries — and with them the float
// summation grouping — stay those of the full run.
func exactBetweenness(t twins, affected []bool, opts engine.Opts) []float64 {
	return accumulateClasses(t, t.reps, t.weight, affected, opts)
}

// quotient is the twin quotient Brandes traverses: twin classes never
// straddle the endpoint split of opts.EndpointsValuesOnly.
func quotient(g Graph, opts engine.Opts) twins {
	if opts.EndpointsValuesOnly {
		return twinClasses(g, opts.ValueNodeCount)
	}
	return twinClasses(g, 0)
}

// ApproxBetweenness estimates betweenness centrality from a random sample of
// opts.Samples BFS sources (uniform, or degree-proportional under
// opts.DegreeBiased), scaling accumulated dependencies by n/s so the
// estimate is unbiased for the exact (raw) score. Samples <= 0 selects 1% of
// the node count, min 100 (the §5.4 footnote 7 heuristic). With Samples >= n
// it degenerates to the exact computation.
func ApproxBetweenness(g Graph, opts engine.Opts) []float64 {
	n := g.NumNodes()
	s := opts.Samples
	if s <= 0 {
		s = max(n/100, 100)
	}
	if s >= n {
		return Betweenness(g, opts)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var sources []int32
	if opts.DegreeBiased {
		sources = sampleByDegree(g, s, rng)
	} else {
		sources = sampleUniform(n, s, rng)
	}
	weight := make([]float64, len(sources))
	for i := range weight {
		weight[i] = float64(n) / float64(s)
	}
	t := quotient(g, opts)
	defer t.release()
	bc := accumulate(t, sources, weight, nil, opts)
	if opts.Normalized {
		normalize(bc, n)
	}
	return bc
}

func sampleUniform(n, s int, rng *rand.Rand) []int32 {
	perm := rng.Perm(n)
	sources := make([]int32, s)
	for i := 0; i < s; i++ {
		sources[i] = int32(perm[i])
	}
	return sources
}

// sampleByDegree draws s distinct sources with probability proportional to
// degree, redrawing repeats (sampling without replacement). When s exceeds
// the positive-degree nodes, all of them are sources: the caller's n/s weight
// still holds, since an isolated source adds no dependency.
func sampleByDegree(g Graph, s int, rng *rand.Rand) []int32 {
	n := g.NumNodes()
	cum := make([]int64, n+1)
	var positive []int32
	for u := range int32(n) {
		d := int64(len(g.Neighbors(u)))
		cum[u+1] = cum[u] + d
		if d > 0 {
			positive = append(positive, u)
		}
	}
	if s > len(positive) {
		return positive
	}
	sources := make([]int32, 0, s)
	total := cum[n]
	seen := make(map[int32]struct{}, s)
	for len(sources) < s {
		r := rng.Int63n(total)
		// Binary search for the owning node.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] <= r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		u := int32(lo)
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		sources = append(sources, u)
	}
	return sources
}

func normalize(bc []float64, n int) {
	if scale, ok := normalizer(n); ok {
		for i := range bc {
			bc[i] *= scale
		}
	}
}

// normalizer is the factor normalize scales an n-node graph's scores by,
// and false when it leaves them raw (n < 3).
func normalizer(n int) (float64, bool) {
	if n < 3 {
		return 1, false
	}
	return 1.0 / (float64(n-1) * float64(n-2)), true
}

// accumulate is accumulateClasses with each class's score copied to its
// members: one score per node.
func accumulate(t twins, sources []int32, weight []float64, affected []bool, opts engine.Opts) []float64 {
	return t.members(accumulateClasses(t, sources, weight, affected, opts))
}

// accumulateClasses runs Brandes' dependency accumulation from the given
// sources over the twin quotient t, scaling source i's contribution by
// weight[i], sharded across workers, and returns one score per class. A
// non-nil affected mask skips the sources outside it without moving the
// shard boundaries. Each worker owns one pooled arena and one partial result
// vector of one entry per class (plus the source), so total scratch is
// O(workers·c).
func accumulateClasses(t twins, sources []int32, weight []float64, affected []bool, opts engine.Opts) []float64 {
	return engine.ShardSumCtx(opts.Context(), opts.Workers, len(t.reps)+1, len(sources),
		func(a *engine.Arena, lo, hi int, out []float64) {
			brandesQuotient(&t, sources[lo:hi], weight[lo:hi], affected, opts, a, out)
		})
}

// brandesQuotient processes a slice of sources, adding weighted dependency
// contributions into bc, one entry per class. Node k < c of the traversal
// is class k, standing for its weight[k] members: path counts are those of
// any one member, a predecessor contributes its count times its multiplicity,
// and a dependency is pulled from every member of a successor class. The
// source s of class S is node c, so node S stands for its twins S∖{s}
// alone (with multiplicity zero when it has none, which adds nothing). The
// BFS queue, consumed by cursor, doubles as the reverse pass's visit order.
func brandesQuotient(t *twins, sources []int32, weight []float64, affected []bool, opts engine.Opts, a *engine.Arena, bc []float64) {
	c := int32(len(t.reps))
	endpointOK := func(k int32) bool {
		return !opts.EndpointsValuesOnly || int(t.reps[k]) < opts.ValueNodeCount
	}

	dist, sigma, delta := a.Dist, a.Sigma, a.Delta
	for i, s := range sources {
		// Cancellation is polled once per source: each source is a whole BFS
		// plus a reverse pass, so the check is off the inner loops, and a
		// cancelled warm abandons the shard between traversals.
		if opts.Cancelled() {
			return
		}
		// Sources outside the affected mask are clean; under the endpoint
		// restriction only value sources contribute at all. Classes never
		// straddle the endpoint split.
		src := t.classOf[s]
		if (affected != nil && !affected[s]) || !endpointOK(src) {
			continue
		}
		// node returns the class and multiplicity of traversal node k.
		node := func(k int32) (int32, float64) {
			switch k {
			case c:
				return src, 1
			case src:
				return src, t.weight[src] - 1
			}
			return k, t.weight[k]
		}
		// Reset only the nodes the previous source touched.
		a.ResetTouched()

		// BFS with shortest-path counting. dist uses +1 offset so the zero
		// value means "unvisited" and resets stay cheap.
		dist[c] = 1
		sigma[c] = 1
		a.Queue = append(a.Queue, c)
		for qi := 0; qi < len(a.Queue); qi++ {
			v := a.Queue[qi]
			dv := dist[v]
			k, m := node(v)
			sv := m * sigma[v]
			for _, w := range t.neighbors(k) {
				if dist[w] == 0 {
					dist[w] = dv + 1
					a.Queue = append(a.Queue, w)
				}
				if dist[w] == dv+1 {
					sigma[w] += sv
				}
			}
		}

		// Reverse-order dependency accumulation over the visit order. Under
		// the endpoint restriction only value targets seed dependency mass.
		// The twins are leaves of the BFS: their own dependency is zero.
		scale := weight[i]
		for qi := len(a.Queue) - 1; qi >= 0; qi-- {
			w := a.Queue[qi]
			k, m := node(w)
			seed := 0.0
			if endpointOK(k) {
				seed = 1.0
			}
			dw := dist[w]
			coeff := m * (seed + delta[w]) / sigma[w]
			for _, v := range t.neighbors(k) {
				if dist[v] == dw-1 {
					delta[v] += sigma[v] * coeff
				}
			}
			if w != c {
				bc[w] += delta[w] * scale
			}
		}
	}
}
