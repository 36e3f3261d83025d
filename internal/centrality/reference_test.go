package centrality

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/engine"
)

// referenceAccumulate is the per-node Brandes kernel the twin quotient
// replaced: one BFS over the node graph per source, with the sharding,
// weighting, affected mask and endpoint rules of accumulate. The sampled
// path draws arbitrary sources, so the twin-plan oracle tests do not reach
// it; this reference does.
func referenceAccumulate(g Graph, sources []int32, weight []float64, affected []bool, opts engine.Opts) []float64 {
	return engine.ShardSumCtx(opts.Context(), opts.Workers, g.NumNodes(), len(sources),
		func(a *engine.Arena, lo, hi int, out []float64) {
			perNodeBrandes(g, sources[lo:hi], weight[lo:hi], affected, opts, a, out)
		})
}

func perNodeBrandes(g Graph, sources []int32, weight []float64, affected []bool, opts engine.Opts, a *engine.Arena, bc []float64) {
	endpointOK := func(u int32) bool {
		return !opts.EndpointsValuesOnly || int(u) < opts.ValueNodeCount
	}
	dist, sigma, delta := a.Dist, a.Sigma, a.Delta
	for i, s := range sources {
		if (affected != nil && !affected[s]) || !endpointOK(s) {
			continue
		}
		a.ResetTouched()
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
				bc[w] += delta[w] * weight[i]
			}
		}
	}
}

// ranking orders node ids by descending score, ties by id.
func ranking(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
	return order
}

// TestApproxQuotientMatchesPerNode holds sampled betweenness, uniform and
// degree-biased, to the per-node kernel over the same sources on SB: the
// same ranking and scores within 1e-12 relative.
func TestApproxQuotientMatchesPerNode(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := bipartite.FromLake(datagen.NewSB(seed).Lake, bipartite.Options{})
		n := g.NumNodes()
		for _, biased := range []bool{false, true} {
			opts := engine.Opts{Seed: seed, DegreeBiased: biased, Normalized: true, Workers: 2}
			got := ApproxBetweenness(g, opts)

			s := max(n/100, 100)
			rng := rand.New(rand.NewSource(seed))
			var sources []int32
			if biased {
				sources = sampleByDegree(g, s, rng)
			} else {
				sources = sampleUniform(n, s, rng)
			}
			weight := make([]float64, len(sources))
			for i := range weight {
				weight[i] = float64(n) / float64(s)
			}
			want := referenceAccumulate(g, sources, weight, nil, opts)
			normalize(want, n)

			for u := range want {
				if !almostEqual(got[u], want[u], 1e-12*math.Abs(want[u])) {
					t.Fatalf("seed %d biased %v: node %d quotient %v, per-node %v", seed, biased, u, got[u], want[u])
				}
			}
			if !slices.Equal(ranking(got), ranking(want)) {
				t.Errorf("seed %d biased %v: rankings differ", seed, biased)
			}
		}
	}
}
