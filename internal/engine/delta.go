package engine

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
}

// NumAffected returns the number of nodes that must be rescored.
func (p *DeltaPlan) NumAffected() int { return len(p.Affected) }

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
// PlanDelta reports ok=false when the delta is malformed (sizes do not cover
// the graph, a clean node lacks a pre-image) or when the affected share
// exceeds the churn threshold — the caller must fall back to full scoring.
func PlanDelta(g Graph, d *Delta) (*DeltaPlan, bool) {
	n := g.NumNodes()
	if d == nil || len(d.PrevCarry) != len(d.PrevToNew) {
		return nil, false
	}
	prevOf := make([]int32, n)
	for i := range prevOf {
		prevOf[i] = -1
	}
	surviving := 0
	for p, nw := range d.PrevToNew {
		if nw < 0 {
			continue
		}
		if int(nw) >= n || prevOf[nw] >= 0 {
			return nil, false // out of range or non-injective
		}
		prevOf[nw] = int32(p)
		surviving++
	}

	if len(d.Dirty) == 0 {
		// Fast path: identical structure. Every node must have a pre-image.
		if surviving != n {
			return nil, false
		}
		return &DeltaPlan{Affected: nil, PrevOf: prevOf}, true
	}

	// Flood-fill the components containing dirty nodes. The arena's Dist
	// array doubles as the visited bitmap (+1 offset convention: 0 means
	// unvisited).
	a := AcquireArena(n)
	defer a.Release()
	for _, s := range d.Dirty {
		if s < 0 || int(s) >= n {
			return nil, false
		}
		if a.Dist[s] != 0 {
			continue
		}
		a.Dist[s] = 1
		a.Queue = append(a.Queue, s)
		for head := len(a.Queue) - 1; head < len(a.Queue); head++ {
			u := a.Queue[head]
			for _, v := range g.Neighbors(u) {
				if a.Dist[v] == 0 {
					a.Dist[v] = 1
					a.Queue = append(a.Queue, v)
				}
			}
		}
	}
	affected := len(a.Queue)
	if affected*deltaMaxChurn > n {
		return nil, false
	}
	plan := &DeltaPlan{
		Affected: make([]int32, 0, affected),
		PrevOf:   prevOf,
	}
	for u := 0; u < n; u++ {
		if a.Dist[u] != 0 {
			plan.Affected = append(plan.Affected, int32(u))
			plan.PrevOf[u] = -1
		} else if plan.PrevOf[u] < 0 {
			return nil, false // clean node with no prior score to carry
		}
	}
	return plan, true
}
