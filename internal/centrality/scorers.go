package centrality

import "domainnet/internal/engine"

// scorerFunc adapts a plain scoring function to engine.Scorer.
type scorerFunc func(g Graph, opts engine.Opts) []float64

func (f scorerFunc) Score(g Graph, opts engine.Opts) []float64 { return f(g, opts) }

// The scorers of the measures implemented as plain functions.
// BetweennessExact and HarmonicScorer are scorers themselves, and the only
// ones that also implement engine.DeltaScorer.
var (
	ApproxBetweennessScorer  engine.Scorer = scorerFunc(ApproxBetweenness)
	EpsilonBetweennessScorer engine.Scorer = scorerFunc(ApproxBetweennessEpsilon)
	LCCScorer                engine.Scorer = scorerFunc(func(g Graph, opts engine.Opts) []float64 {
		return LCC(bipartiteView(g, "LCC"), opts)
	})
	LCCAttrScorer engine.Scorer = scorerFunc(func(g Graph, opts engine.Opts) []float64 {
		return LCCAttributeJaccard(bipartiteView(g, "LCCAttributeJaccard"), opts)
	})
	DegreeScorer engine.Scorer = scorerFunc(func(g Graph, _ engine.Opts) []float64 {
		return Degree(g)
	})
)

// bipartiteView asserts that a graph exposes the value-node prefix the LCC
// measures require.
func bipartiteView(g Graph, measure string) Bipartite {
	bg, ok := g.(Bipartite)
	if !ok {
		panic("centrality: " + measure + " requires a bipartite graph (NumValues)")
	}
	return bg
}

// Degree returns the degree of every node, the cheapest possible centrality
// baseline used in the ablation benchmarks.
func Degree(g Graph) []float64 {
	n := g.NumNodes()
	d := make([]float64, n)
	for u := 0; u < n; u++ {
		d[u] = float64(len(g.Neighbors(int32(u))))
	}
	return d
}
