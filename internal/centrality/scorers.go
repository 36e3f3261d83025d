package centrality

import "domainnet/internal/engine"

// Registry names of the built-in scorers. These are the stable keys callers
// dispatch on (and the display names the detector prints); new measures
// register under their own name without touching any dispatch code.
const (
	NameBetweennessApprox  = "betweenness(approx)"
	NameBetweennessExact   = "betweenness(exact)"
	NameLCC                = "lcc"
	NameLCCAttr            = "lcc(attr-jaccard)"
	NameDegree             = "degree"
	NameBetweennessEpsilon = "betweenness(epsilon)"
	NameHarmonic           = "harmonic"
)

// scorerFunc adapts a plain scoring function to engine.Scorer.
type scorerFunc struct {
	name string
	fn   func(g Graph, opts engine.Opts) []float64
}

func (s scorerFunc) Name() string                              { return s.name }
func (s scorerFunc) Score(g Graph, opts engine.Opts) []float64 { return s.fn(g, opts) }

// bipartiteView asserts that a graph exposes the value-node prefix the LCC
// measures require.
func bipartiteView(g Graph, name string) Bipartite {
	bg, ok := g.(Bipartite)
	if !ok {
		panic("centrality: scorer " + name + " requires a bipartite graph (NumValues)")
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

func init() {
	engine.Register(BetweennessExact{})
	engine.Register(scorerFunc{NameBetweennessApprox, func(g Graph, opts engine.Opts) []float64 {
		if opts.Samples <= 0 {
			// 1% of the node count, min 100 — the §5.4 footnote 7 heuristic.
			opts.Samples = g.NumNodes() / 100
			if opts.Samples < 100 {
				opts.Samples = 100
			}
		}
		return ApproxBetweenness(g, opts)
	}})
	engine.Register(scorerFunc{NameBetweennessEpsilon, ApproxBetweennessEpsilon})
	engine.Register(scorerFunc{NameLCC, func(g Graph, opts engine.Opts) []float64 {
		return LCC(bipartiteView(g, NameLCC), opts)
	}})
	engine.Register(scorerFunc{NameLCCAttr, func(g Graph, opts engine.Opts) []float64 {
		return LCCAttributeJaccard(bipartiteView(g, NameLCCAttr), opts)
	}})
	engine.Register(scorerFunc{NameDegree, func(g Graph, _ engine.Opts) []float64 {
		return Degree(g)
	}})
	engine.Register(HarmonicScorer{})
}
