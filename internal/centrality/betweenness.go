// Package centrality implements the network measures DomainNet ranks value
// nodes by (paper §3.3): betweenness centrality — exact (Brandes) and
// approximate via source sampling (after Geisberger, Sanders, Schultes) —
// and the bipartite local clustering coefficient of Eq. 1.
//
// All algorithms operate on the minimal engine.Graph interface so they run
// unchanged over the bipartite DomainNet graph, the tripartite row variant,
// and the unipartite co-occurrence graph. Every measure takes the single
// engine.Opts struct and is exported as an engine.Scorer value (see
// scorers.go), which the detector's measure table points at. BFS scratch
// state comes from the shared per-worker engine.Arena pool: one arena per
// worker, reused across all of that worker's sources, instead of per-source
// (or per-call) heap allocation.
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
// twin classes, not nodes (see twins): each class's representative
// accumulates with the class size as its weight, so runtime is O(c·m) for c
// distinct neighbor lists, and classes are sharded across opts.Workers, each
// worker traversing with one reused arena.
func Betweenness(g Graph, opts engine.Opts) []float64 {
	bc := exactBetweenness(g, nil, opts)
	if opts.Normalized {
		normalize(bc, g.NumNodes())
	}
	return bc
}

// exactBetweenness is the one source plan of every exact Brandes entry point:
// raw scores from the twin-class representatives of g. A non-nil affected
// mask skips the classes outside it; since it filters inside the shards, the
// shard boundaries — and with them the float summation grouping — stay those
// of the full run.
func exactBetweenness(g Graph, affected []bool, opts engine.Opts) []float64 {
	split := 0
	if opts.EndpointsValuesOnly {
		split = opts.ValueNodeCount
	}
	t := twinClasses(g, split)
	return accumulate(g, t.reps, t.weight, affected, opts)
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
	weight := make([]float64, s)
	for i := range weight {
		weight[i] = float64(n) / float64(s)
	}
	bc := accumulate(g, sources, weight, nil, opts)
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

func sampleByDegree(g Graph, s int, rng *rand.Rand) []int32 {
	n := g.NumNodes()
	// Cumulative degree table; sampling with replacement keeps this O(s log n)
	// and matches the "probability proportional to degree" description.
	cum := make([]int64, n+1)
	for u := 0; u < n; u++ {
		cum[u+1] = cum[u] + int64(len(g.Neighbors(int32(u))))
	}
	total := cum[n]
	sources := make([]int32, 0, s)
	seen := make(map[int32]struct{}, s)
	for len(sources) < s {
		if total == 0 {
			// Edgeless graph: fall back to uniform so we still terminate.
			return sampleUniform(n, s, rng)
		}
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
	if n < 3 {
		return
	}
	scale := 1.0 / (float64(n-1) * float64(n-2))
	for i := range bc {
		bc[i] *= scale
	}
}

// accumulate runs Brandes' dependency accumulation from the given sources,
// scaling source i's contribution by weight[i], sharded across workers. A
// non-nil affected mask skips the sources outside it without moving the
// shard boundaries. Each worker owns one pooled arena and one partial result
// vector, so total scratch is O(workers·n) regardless of the source count.
func accumulate(g Graph, sources []int32, weight []float64, affected []bool, opts engine.Opts) []float64 {
	return engine.ShardSumCtx(opts.Context(), opts.Workers, g.NumNodes(), len(sources),
		func(a *engine.Arena, lo, hi int, out []float64) {
			brandesShard(g, sources[lo:hi], weight[lo:hi], affected, opts, a, out)
		})
}

// brandesShard processes a slice of sources, adding weighted dependency
// contributions into bc. All scratch lives in the arena; the BFS queue is
// consumed by cursor (not by reslicing) so it doubles as the visit order for
// the reverse pass and never reallocates after warm-up.
func brandesShard(g Graph, sources []int32, weight []float64, affected []bool, opts engine.Opts, a *engine.Arena, bc []float64) {
	endpointOK := func(u int32) bool {
		if !opts.EndpointsValuesOnly {
			return true
		}
		return int(u) < opts.ValueNodeCount
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
		// restriction only value sources contribute at all.
		if (affected != nil && !affected[s]) || !endpointOK(s) {
			continue
		}
		// Reset only the nodes the previous source touched.
		a.ResetTouched()

		// BFS with shortest-path counting. dist uses +1 offset so the zero
		// value means "unvisited" and resets stay cheap.
		dist[s] = 1
		sigma[s] = 1
		a.Queue = append(a.Queue, s)
		for qi := 0; qi < len(a.Queue); qi++ {
			v := a.Queue[qi]
			dv := dist[v]
			for _, w := range g.Neighbors(v) {
				if dist[w] == 0 {
					dist[w] = dv + 1
					a.Queue = append(a.Queue, w)
				}
				if dist[w] == dv+1 {
					sigma[w] += sigma[v]
				}
			}
		}

		// Reverse-order dependency accumulation over the visit order. Under
		// the endpoint restriction only value targets seed dependency mass.
		scale := weight[i]
		for qi := len(a.Queue) - 1; qi >= 0; qi-- {
			w := a.Queue[qi]
			seed := 0.0
			if endpointOK(w) {
				seed = 1.0
			}
			dw := dist[w]
			coeff := (seed + delta[w]) / sigma[w]
			for _, v := range g.Neighbors(w) {
				if dist[v] == dw-1 {
					delta[v] += sigma[v] * coeff
				}
			}
			if w != s {
				bc[w] += delta[w] * scale
			}
		}
	}
}
