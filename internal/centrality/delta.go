package centrality

import "domainnet/internal/engine"

// The delta-capable scorers exploit a structural fact of BFS-family
// measures: every per-source traversal is confined to the source's connected
// component, so a component untouched by the delta contributes — source for
// source — exactly the numbers it contributed in the previous run, and only
// the affected components' sources re-run (engine.PlanDelta).
//
// Both carry the twin quotient they traversed: each carry entry holds its
// node's class, and ScoreDelta derives the new quotient from those classes
// (carriedTwins) instead of hashing every neighbor list again. The derived
// quotient is the one twinClasses builds over the new graph, so full and
// delta runs traverse the same classes under the same shard boundaries.
//
// Float determinism is measure-specific and documented per scorer:
//
//   - Harmonic writes each source's own output entry, no cross-source
//     summation, and copies it to the source's twins (harmonicExact) —
//     incremental results are bit-identical to a from-scratch recompute,
//     for any worker count.
//   - Betweenness folds per-source dependency vectors through per-shard
//     partial sums, so its bits depend on the shard grouping (as they
//     already do on the worker count). Full and delta runs shard over the
//     same twin-class representatives of the new graph (exactBetweenness),
//     the delta run skipping clean classes inside its shards — a class lies
//     in one component, so it is wholly affected or wholly clean. Rescored
//     entries are therefore bit-identical to a recompute at the same worker
//     count; carried entries were summed under the previous graph's classes
//     and boundaries and can differ from a cold recompute in the last ulps
//     when the graph changed. The values are identical as real numbers —
//     the drift is summation grouping only — and when the delta is empty
//     with an unchanged node universe (the single-table republish case) the
//     carry is bit-identical too.
//
// Normalization is deliberately left out of the carry: raw scores are
// carried and the (n-dependent) normalization is applied to the final
// vector, so node-count drift between rounds cannot skew carried entries.

// BetweennessExact is the exact-Brandes scorer; it implements
// engine.DeltaScorer.
type BetweennessExact struct{}

// Score implements engine.Scorer.
func (BetweennessExact) Score(g Graph, opts engine.Opts) []float64 {
	return Betweenness(g, opts)
}

// finishBetweenness writes, in one pass over the nodes, the carry and the
// final scores (normalized when opts asks) from each node's raw score:
// byClass[k] of its class k, or for a node with a pre-image p in prevOf
// (nil: none has), the raw score prev carried for p.
func finishBetweenness(t twins, byClass []float64, prevOf []int32, prev engine.Carry, opts engine.Opts) (scores []float64, carry engine.Carry) {
	n := len(t.classOf)
	scale, scaled := normalizer(n)
	scaled = scaled && opts.Normalized
	scores, carry = make([]float64, n), make(engine.Carry, n)
	for u, k := range t.classOf {
		var raw float64
		if prevOf != nil && prevOf[u] >= 0 {
			raw = prev[prevOf[u]].Raw
		} else {
			raw = byClass[k]
		}
		carry[u] = engine.CarryNode{Raw: raw, Class: k}
		if scaled {
			raw *= scale
		}
		scores[u] = raw
	}
	return scores, carry
}

// ScoreFull implements engine.DeltaScorer: a from-scratch computation that
// also returns the carry for a later ScoreDelta. Under the endpoint ablation,
// where ScoreDelta does not apply, the carry is nil.
func (BetweennessExact) ScoreFull(g Graph, opts engine.Opts) (scores []float64, carry engine.Carry) {
	if opts.EndpointsValuesOnly {
		return Betweenness(g, opts), nil
	}
	t := twinClasses(g, 0)
	defer t.release()
	return finishBetweenness(t, exactBetweenness(t, nil, opts), nil, nil, opts)
}

// affectedMask marks the nodes the plan must rescore.
func affectedMask(plan *engine.DeltaPlan, n int) []bool {
	mask := make([]bool, n)
	for _, u := range plan.Affected {
		mask[u] = true
	}
	return mask
}

// planDelta resolves d against g and derives g's twin quotient from the
// classes d.PrevCarry records (see carriedTwins).
func planDelta(g Graph, d *engine.Delta) (*engine.DeltaPlan, twins, bool) {
	plan, ok := engine.PlanDelta(g, d)
	if !ok {
		return nil, twins{}, false
	}
	return plan, carriedTwins(g, plan, d.PrevCarry), true
}

// ScoreDelta implements engine.DeltaScorer: Brandes re-runs only from the
// twin classes of components the delta touched, every other node carries its
// raw prior. ok=false under the endpoint ablation (the carry was not built for
// it), on malformed deltas, or past the plan's churn threshold. Like Score,
// a cancelled opts.Ctx yields a partial result the caller must discard.
func (BetweennessExact) ScoreDelta(g Graph, d *engine.Delta, opts engine.Opts) (scores []float64, carry engine.Carry, ok bool) {
	if opts.EndpointsValuesOnly {
		return nil, nil, false
	}
	plan, t, ok := planDelta(g, d)
	if !ok {
		return nil, nil, false
	}
	defer plan.Release()
	defer t.release()
	var byClass []float64 // pure carry: no BFS, no sharded scan
	if plan.NumAffected() > 0 {
		byClass = exactBetweenness(t, affectedMask(plan, g.NumNodes()), opts)
	}
	scores, carry = finishBetweenness(t, byClass, plan.PrevOf, d.PrevCarry, opts)
	return scores, carry, true
}

// HarmonicScorer is the harmonic scorer (exact by default, sampled when
// opts.Samples is set); it implements engine.DeltaScorer for the exact path.
type HarmonicScorer struct{}

// Score implements engine.Scorer.
func (HarmonicScorer) Score(g Graph, opts engine.Opts) []float64 {
	if opts.Samples <= 0 {
		return Harmonic(g, opts)
	}
	return ApproxHarmonic(g, opts)
}

// ScoreFull implements engine.DeltaScorer. Harmonic scores are never
// rescaled, so the carry's raw scores are the scores themselves; a sampled
// estimate returns a nil carry.
func (h HarmonicScorer) ScoreFull(g Graph, opts engine.Opts) (scores []float64, carry engine.Carry) {
	if opts.Samples > 0 && opts.Samples < g.NumNodes() {
		return ApproxHarmonic(g, opts), nil
	}
	t := twinClasses(g, 0)
	defer t.release()
	out := make([]float64, g.NumNodes())
	harmonicExact(g, t, nil, out, opts)
	return out, t.carry(out)
}

// ScoreDelta implements engine.DeltaScorer: each affected twin class re-runs
// one BFS, every clean source carries its prior Σ 1/d. The sampled estimator
// draws sources globally and cannot decompose by component, so ScoreDelta
// only applies on the exact path (Samples == 0 or >= n).
func (HarmonicScorer) ScoreDelta(g Graph, d *engine.Delta, opts engine.Opts) (scores []float64, carry engine.Carry, ok bool) {
	n := g.NumNodes()
	if opts.Samples > 0 && opts.Samples < n {
		return nil, nil, false
	}
	plan, t, ok := planDelta(g, d)
	if !ok {
		return nil, nil, false
	}
	defer plan.Release()
	defer t.release()
	out := make([]float64, n)
	for u, p := range plan.PrevOf {
		if p >= 0 {
			out[u] = d.PrevCarry[p].Raw
		}
	}
	if plan.NumAffected() > 0 {
		harmonicExact(g, t, affectedMask(plan, n), out, opts)
	}
	return out, t.carry(out), true
}
