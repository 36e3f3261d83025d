package centrality

import "domainnet/internal/engine"

// NaiveBetweenness computes exact betweenness by the definition (paper
// Eq. 2): for every ordered pair (s,t) and every intermediate node u,
// σ_st(u)/σ_st where σ_st(u) = σ_su·σ_ut when u lies on a shortest s–t path.
// It materializes all-pairs distances and path counts, costing O(n·m) time
// and O(n²) space, and — crucially for its role as a test oracle — shares no
// code with Brandes' dependency accumulation (nor with the arena substrate
// or the twin-class source plan).
func NaiveBetweenness(g Graph, opts engine.Opts) []float64 {
	n := g.NumNodes()
	weight := make([]float64, n)
	for s := range weight {
		weight[s] = 1
	}
	bc := naiveFrom(g, weight, opts)
	if opts.Normalized {
		normalize(bc, n)
	}
	return bc
}

// naiveFrom is the raw definitional sum over the sources s with a nonzero
// weight[s], each pair's term scaled by its source's weight.
func naiveFrom(g Graph, weight []float64, opts engine.Opts) []float64 {
	n := g.NumNodes()
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		dist[s], sigma[s] = bfsCounts(g, int32(s))
	}

	endpointOK := func(u int) bool {
		if !opts.EndpointsValuesOnly {
			return true
		}
		return u < opts.ValueNodeCount
	}

	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		if weight[s] == 0 || !endpointOK(s) {
			continue
		}
		for t := 0; t < n; t++ {
			if t == s || !endpointOK(t) || dist[s][t] < 0 {
				continue
			}
			for u := 0; u < n; u++ {
				if u == s || u == t || dist[s][u] < 0 || dist[u][t] < 0 {
					continue
				}
				if dist[s][u]+dist[u][t] == dist[s][t] {
					bc[u] += weight[s] * sigma[s][u] * sigma[u][t] / sigma[s][t]
				}
			}
		}
	}
	return bc
}

// bfsCounts returns shortest-path distances (-1 when unreachable) and path
// counts from source s.
func bfsCounts(g Graph, s int32) ([]int32, []float64) {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma := make([]float64, n)
	dist[s] = 0
	sigma[s] = 1
	queue := []int32{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
			}
		}
	}
	return dist, sigma
}
