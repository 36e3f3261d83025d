package engine

import (
	"math/bits"
	"slices"
	"sync"
)

// Delta describes how a graph evolved from a previous build, in enough
// detail for a scorer to reuse prior per-node results. It is produced by the
// graph layer (bipartite.RebuildDiff) and consumed by DeltaScorer
// implementations via PlanDelta.
//
// All node ids are in the respective graph's node-id space. PrevToNew maps
// every previous node id to its id in the new graph, or -1 when the node no
// longer exists; the mapping must be injective over surviving nodes. Dirty
// lists new-graph nodes whose adjacency changed (edges added or removed,
// including nodes that did not exist before); a new node absent from Dirty
// must have exactly the neighbor list its pre-image had, mapped under
// PrevToNew and in the same order (the bipartite builder's sorted lists and
// monotone mapping give this; an order change costs the twin-quotient
// scorers their bit-identity with a full run, not their exactness).
// PrevCarry is the previous round's carry, one entry per previous node.
type Delta struct {
	PrevToNew []int32
	Dirty     []int32
	PrevCarry Carry
}

// Carry is what a DeltaScorer hands its next round, one entry per node of
// the graph it scored.
type Carry []CarryNode

// CarryNode is one node's carried state: its raw (denormalization-free)
// score, and its class in the partition of the nodes that the scorer derives
// from the graph and updates under a delta instead of rebuilding (the
// centrality package's twin quotient).
type CarryNode struct {
	Raw   float64
	Class int32
}

// DeltaScorer is the incremental sibling of Scorer. ScoreFull computes the
// measure from scratch like Score but additionally returns the carry a later
// ScoreDelta call can reuse; ScoreDelta recomputes only what
// the delta dirtied, carrying the rest from d.PrevCarry. ScoreDelta returns
// ok=false when the delta cannot be applied for this measure under these
// options (approximate paths, churn past the fallback threshold, malformed
// delta) — the caller then falls back to ScoreFull.
//
// Both return the final scores (normalized per opts) and the carry for the
// next round; ScoreFull returns a nil carry when its result cannot seed a
// delta (an estimate from sampled sources). Carried entries equal what a from-scratch run would
// produce — bit for bit when the measure writes per-source outputs
// (harmonic), and within deterministic float-summation tolerance when it
// folds per-source contributions through shard-grouped partial sums
// (betweenness); see PlanDelta and the centrality package comment.
type DeltaScorer interface {
	Scorer
	ScoreFull(g Graph, opts Opts) (scores []float64, carry Carry)
	ScoreDelta(g Graph, d *Delta, opts Opts) (scores []float64, carry Carry, ok bool)
}

// deltaMaxChurn caps the affected share of a graph: when the affected node
// set exceeds 1/deltaMaxChurn of the graph, incremental scoring would
// traverse most of it anyway and the plan reports !ok.
const deltaMaxChurn = 4

// DeltaPlan is the result of resolving a Delta against a concrete graph:
// which nodes must be rescored and which can carry their prior value.
type DeltaPlan struct {
	// Affected lists, in ascending order, every node of a connected component
	// that contains at least one dirty node. BFS-family measures must re-run
	// from exactly these sources; every other node's per-source contribution
	// is unchanged.
	Affected []int32
	// PrevOf maps each new node id to its previous id, or -1 for affected
	// nodes (which must be rescored, not carried). Clean entries always have
	// a valid pre-image.
	PrevOf []int32

	seen []uint64 // the flood fill's visited set, a bit per node
}

// NumAffected returns the number of nodes that must be rescored.
func (p *DeltaPlan) NumAffected() int { return len(p.Affected) }

// planPool recycles plans, whose arrays are sized by the graph: a plan
// lives for one ScoreDelta call.
var planPool = sync.Pool{New: func() any { return new(DeltaPlan) }}

// Release hands the plan's arrays to a later PlanDelta. The plan and its
// slices must not be used afterwards; a plan that is never released is
// collected as usual.
func (p *DeltaPlan) Release() { planPool.Put(p) }

// PlanDelta resolves d against g at component granularity. A connected
// component with no dirty node is, edge for edge, the image of a previous
// component under PrevToNew — every shortest path inside it is unchanged, so
// both the per-source traversals it originates and the raw contributions it
// receives are exactly those of a from-scratch run. Components touching a
// dirty node are rescored wholesale: in a bipartite graph adjacent nodes are
// never equidistant from any source, so no finer per-source pruning can
// certify unchanged dependencies, and wholesale component rescoring is the
// finest granularity that keeps results exact. (Whether "exact" means
// bit-identical or identical-as-reals within float-summation tolerance
// depends on how the measure reduces per-source contributions; the scorers
// document which.)
//
// Beyond inverting PrevToNew, the plan costs the affected components: the
// flood fill reads only their lists, and a bit per node is all it clears.
//
// PlanDelta reports ok=false when the delta is malformed (sizes do not cover
// the graph, a clean node lacks a pre-image) or when the affected share
// exceeds the churn threshold — the caller must fall back to full scoring.
func PlanDelta(g Graph, d *Delta) (*DeltaPlan, bool) {
	n := g.NumNodes()
	if d == nil || len(d.PrevCarry) != len(d.PrevToNew) {
		return nil, false
	}
	p := planPool.Get().(*DeltaPlan)
	fail := func() (*DeltaPlan, bool) {
		p.Release()
		return nil, false
	}
	prevOf := slices.Grow(p.PrevOf[:0], n)[:n]
	for i := range prevOf {
		prevOf[i] = -1
	}
	p.PrevOf = prevOf
	surviving := 0
	for q, nw := range d.PrevToNew {
		if nw < 0 {
			continue
		}
		if int(nw) >= n || prevOf[nw] >= 0 {
			return fail() // out of range or non-injective
		}
		prevOf[nw] = int32(q)
		surviving++
	}

	// Flood-fill the components containing dirty nodes, queueing each node
	// as it is first seen; the queue is then rewritten in node order.
	seen := slices.Grow(p.seen[:0], (n+63)/64)[:(n+63)/64]
	clear(seen)
	p.seen = seen
	queue := p.Affected[:0]
	visit := func(u int32) {
		if seen[u>>6]&(1<<(u&63)) == 0 {
			seen[u>>6] |= 1 << (u & 63)
			queue = append(queue, u)
		}
	}
	for _, s := range d.Dirty {
		if s < 0 || int(s) >= n {
			p.Affected = queue
			return fail()
		}
		head := len(queue)
		for visit(s); head < len(queue); head++ {
			for _, v := range g.Neighbors(queue[head]) {
				visit(v)
			}
		}
	}
	p.Affected = queue
	if len(queue)*deltaMaxChurn > n {
		return fail()
	}
	// Every clean node needs a pre-image to carry: the survivors mapped to
	// clean nodes must number the clean nodes.
	affected, carried := queue[:0], surviving
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			u := int32(w<<6 + bits.TrailingZeros64(word))
			affected = append(affected, u)
			if prevOf[u] >= 0 {
				prevOf[u] = -1
				carried--
			}
		}
	}
	if carried != n-len(affected) {
		return fail() // a clean node with no prior score to carry
	}
	p.Affected = affected
	return p, true
}
