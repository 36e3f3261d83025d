// Package engine is the shared execution substrate of the DomainNet scoring
// pipeline. It defines the minimal graph view the centrality algorithms
// consume, the single options struct every measure is parameterized by, the
// Scorer interface every measure implements, the reusable per-worker BFS
// arena that makes repeated graph traversals allocation-free, and the radix
// sort that orders value nodes and rankings (RadixOrder, which sorts a key
// slice the caller owns in place and returns the permutation it applied).
//
// The package has no dependencies beyond the standard library and imports
// nothing else from this repository, so every layer — centrality algorithms,
// graph builders, the detector, experiment drivers — can share it without
// import cycles.
package engine

import (
	"context"
	"runtime"
)

// Graph is the read-only adjacency view scoring algorithms need.
// Neighbor slices must not be mutated and need not be sorted.
type Graph interface {
	NumNodes() int
	Neighbors(u int32) []int32
}

// Opts is the one options struct threaded through every Scorer. A measure
// reads the fields it understands and ignores the rest; zero values select
// sensible defaults everywhere.
type Opts struct {
	// Workers bounds traversal parallelism (concurrent BFS sources, graph
	// shards). Zero means GOMAXPROCS.
	Workers int
	// Seed drives all sampling; fixed seeds give reproducible scores.
	Seed int64
	// Samples is the BFS-source budget of sampled measures. Zero selects the
	// measure's own default (approximate betweenness: 1% of nodes, min 100;
	// harmonic: exact computation).
	Samples int
	// Normalized divides betweenness scores by (n-1)(n-2), the ordered pair
	// count, yielding scores in [0,1] comparable across graph sizes.
	Normalized bool
	// DegreeBiased switches sampled betweenness from uniform to
	// degree-proportional source sampling (paper §3.3).
	DegreeBiased bool
	// Epsilon parameterizes the (ε, δ) path-sampling estimator: estimates
	// are within Epsilon of the true betweenness fraction with probability
	// 0.9 (δ = 0.1). Zero selects 0.05. The sample count follows from the
	// bound alone, uncapped.
	Epsilon float64
	// EndpointsValuesOnly restricts shortest-path endpoints to value nodes
	// (the paper's footnote-2 ablation). ValueNodeCount must be set.
	EndpointsValuesOnly bool
	// ValueNodeCount is the size of the value-node prefix [0, ValueNodeCount)
	// used when EndpointsValuesOnly is set.
	ValueNodeCount int
	// Ctx carries cancellation into long-running scorers: the arena-backed
	// traversal measures poll it between BFS sources, sampled paths and
	// signature shards and return early once it is cancelled, leaving a
	// partial result. Callers passing a cancellable Ctx must therefore check
	// it after Score returns and discard the result on cancellation — the
	// background pre-warm path does exactly that. Nil means never cancelled.
	Ctx context.Context
}

// Context returns Ctx, or context.Background() when unset, so drivers can
// always hand a non-nil context to ParallelCtx/ShardSumCtx.
func (o Opts) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Cancelled reports whether Ctx is set and already cancelled. Scorers call
// it between units of work (a BFS source, a sampled path, a signature); it
// is deliberately cheap enough for that cadence.
func (o Opts) Cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// EffectiveWorkers resolves Workers against the number of independent work
// items: zero becomes GOMAXPROCS, and the result never exceeds items (nor
// drops below 1).
func (o Opts) EffectiveWorkers(items int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Scorer is a scoring measure. Score computes the measure over g under opts
// and returns one score per node, indexed by node id; measures defined only
// on a node prefix (such as the value-node LCC) still return a slice the
// caller can index by node id for that prefix.
type Scorer interface {
	Score(g Graph, opts Opts) []float64
}
