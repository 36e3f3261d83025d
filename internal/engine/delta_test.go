package engine

import (
	"slices"
	"testing"
)

// adjGraph is a minimal adjacency-list Graph for delta-plan tests.
type adjGraph struct{ adj [][]int32 }

func (g *adjGraph) NumNodes() int             { return len(g.adj) }
func (g *adjGraph) Neighbors(u int32) []int32 { return g.adj[u] }
func (g *adjGraph) addEdge(u, v int32) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}
func newAdjGraph(n int) *adjGraph { return &adjGraph{adj: make([][]int32, n)} }

// identityDelta builds a no-change delta for an n-node graph.
func identityDelta(n int) *Delta {
	d := &Delta{PrevToNew: make([]int32, n), PrevCarry: make(Carry, n)}
	for i := range d.PrevToNew {
		d.PrevToNew[i] = int32(i)
		d.PrevCarry[i] = CarryNode{Raw: float64(i) * 1.5}
	}
	return d
}

func TestPlanDeltaEmptyDirtyCarriesEverything(t *testing.T) {
	g := newAdjGraph(6)
	g.addEdge(0, 1)
	g.addEdge(2, 3)
	plan, ok := PlanDelta(g, identityDelta(6))
	if !ok {
		t.Fatal("PlanDelta rejected an identity delta")
	}
	if plan.NumAffected() != 0 {
		t.Fatalf("Affected = %v, want empty", plan.Affected)
	}
	for u, p := range plan.PrevOf {
		if p != int32(u) {
			t.Fatalf("PrevOf[%d] = %d, want identity", u, p)
		}
	}
}

func TestPlanDeltaAffectsWholeComponent(t *testing.T) {
	// Components {0,1,2}, {3,4}, and isolated 5..15 (padding that keeps the
	// affected share under the churn threshold). Dirtying node 1 must
	// affect exactly its component, all listed ascending.
	g := newAdjGraph(16)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(3, 4)
	d := identityDelta(16)
	d.Dirty = []int32{1}
	plan, ok := PlanDelta(g, d)
	if !ok {
		t.Fatal("PlanDelta rejected a small delta")
	}
	if want := []int32{0, 1, 2}; !slices.Equal(plan.Affected, want) {
		t.Fatalf("Affected = %v, want %v", plan.Affected, want)
	}
	for u := 0; u < 16; u++ {
		wantPrev := int32(u)
		if u <= 2 {
			wantPrev = -1 // affected nodes are rescored, not carried
		}
		if plan.PrevOf[u] != wantPrev {
			t.Fatalf("PrevOf[%d] = %d, want %d", u, plan.PrevOf[u], wantPrev)
		}
	}
}

func TestPlanDeltaChurnThresholdFallsBack(t *testing.T) {
	// One component spanning >1/4 of the nodes: dirtying it must trip the
	// churn fallback.
	g := newAdjGraph(8)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	d := identityDelta(8)
	d.Dirty = []int32{0}
	if _, ok := PlanDelta(g, d); ok {
		t.Fatal("PlanDelta accepted churn past the threshold (3 of 8 nodes affected)")
	}
}

func TestPlanDeltaRejectsMalformedDeltas(t *testing.T) {
	g := newAdjGraph(4)
	g.addEdge(0, 1)

	if _, ok := PlanDelta(g, nil); ok {
		t.Error("nil delta accepted")
	}

	// Carry length disagreeing with the mapping.
	d := identityDelta(4)
	d.PrevCarry = d.PrevCarry[:3]
	if _, ok := PlanDelta(g, d); ok {
		t.Error("mismatched carry length accepted")
	}

	// Non-injective mapping.
	d = identityDelta(4)
	d.PrevToNew[1] = 0
	if _, ok := PlanDelta(g, d); ok {
		t.Error("non-injective mapping accepted")
	}

	// Mapping target out of range.
	d = identityDelta(4)
	d.PrevToNew[3] = 9
	if _, ok := PlanDelta(g, d); ok {
		t.Error("out-of-range mapping accepted")
	}

	// A clean node with no pre-image cannot be carried. (12 nodes so the
	// 2-node affected component stays under the churn threshold and the
	// pre-image check is what rejects.)
	big := newAdjGraph(12)
	big.addEdge(0, 1)
	d = identityDelta(12)
	d.PrevToNew[3] = -1
	d.Dirty = []int32{0} // affects {0,1}; node 3 stays clean but unmapped
	if _, ok := PlanDelta(big, d); ok {
		t.Error("clean node without pre-image accepted")
	}
	// Same gap with empty Dirty: the fast path must also reject it.
	d.Dirty = nil
	if _, ok := PlanDelta(big, d); ok {
		t.Error("empty-dirty delta with missing pre-image accepted")
	}

	// Dirty id out of range.
	d = identityDelta(4)
	d.Dirty = []int32{7}
	if _, ok := PlanDelta(g, d); ok {
		t.Error("out-of-range dirty node accepted")
	}
}

func TestPlanDeltaNewNodeInDirtyComponent(t *testing.T) {
	// Previous graph had 3 nodes {0:1} plus isolated 2; the new graph grew
	// node 3 attached to 2. Node 3 has no pre-image but its component is
	// dirty, so the plan carries {0,1} and rescores {2,3}... which is half
	// the graph — use 10 nodes so the churn gate stays quiet.
	g := newAdjGraph(10)
	g.addEdge(0, 1)
	g.addEdge(2, 3) // 3 is the new node
	d := &Delta{
		PrevToNew: make([]int32, 9),
		PrevCarry: make(Carry, 9),
		Dirty:     []int32{2, 3},
	}
	for p := 0; p < 9; p++ {
		nw := p
		if p >= 3 {
			nw = p + 1 // old nodes 3..8 shifted up by the insertion
		}
		d.PrevToNew[p] = int32(nw)
	}
	plan, ok := PlanDelta(g, d)
	if !ok {
		t.Fatal("PlanDelta rejected a grown graph")
	}
	if want := []int32{2, 3}; !slices.Equal(plan.Affected, want) {
		t.Fatalf("Affected = %v, want %v", plan.Affected, want)
	}
	if plan.PrevOf[4] != 3 {
		t.Fatalf("PrevOf[4] = %d, want 3 (shifted pre-image)", plan.PrevOf[4])
	}
}
