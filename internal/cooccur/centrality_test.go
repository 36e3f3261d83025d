package cooccur

import (
	"testing"

	"domainnet/internal/centrality"
	"domainnet/internal/engine"
)

// TestCooccurrenceBCAgreesWithBipartite validates the paper's Figure 3
// narrative: the co-occurrence graph and the bipartite graph encode the
// same pivotal-node structure, so betweenness over either ranks the
// Figure 1 homographs first.
func TestCooccurrenceBCAgreesWithBipartite(t *testing.T) {
	g := FromAttributes(figure1FourAttributes())
	bc := centrality.Betweenness(g, engine.Opts{Normalized: true})

	best, second := int32(-1), int32(-1)
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if best < 0 || bc[u] > bc[best] {
			second = best
			best = u
		} else if second < 0 || bc[u] > bc[second] {
			second = u
		}
	}
	top := map[string]bool{g.Value(best): true, g.Value(second): true}
	if !top["JAGUAR"] || !top["PUMA"] {
		t.Errorf("co-occurrence BC top-2 = %v, want Jaguar and Puma", top)
	}
}

// TestCooccurrenceLCCRunsViaInterface checks the centrality package's
// algorithms accept the co-occurrence graph through the shared interface.
func TestCooccurrenceDegreeViaInterface(t *testing.T) {
	g := FromAttributes(figure1FourAttributes())
	deg := centrality.Degree(g)
	jaguar, _ := g.ValueNode("JAGUAR")
	// Jaguar co-occurs with every other value in the 4-attribute example.
	if int(deg[jaguar]) != g.NumNodes()-1 {
		t.Errorf("Jaguar co-occurrence degree = %v, want %d", deg[jaguar], g.NumNodes()-1)
	}
}
