package community

import (
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/lake"
)

// multiColumnTypes builds two semantic types with low pairwise overlap —
// the regime where label propagation keeps columns separate but attribute
// clustering must still group them.
func multiColumnTypes() *bipartite.Graph {
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "c1", Values: []string{"A1", "A2", "A3", "A4", "A5", "A6", "JAGUAR"}},
		{ID: "c2", Values: []string{"A4", "A5", "A6", "A7", "A8", "A9"}},
		{ID: "c3", Values: []string{"B1", "B2", "B3", "B4", "B5", "B6", "JAGUAR"}},
		{ID: "c4", Values: []string{"B4", "B5", "B6", "B7", "B8", "B9"}},
	})
	return bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
}

func TestClusterAttributesGroupsTypes(t *testing.T) {
	g := multiColumnTypes()
	c := ClusterAttributes(g, 0.3, 2)
	if c.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", c.NumClusters)
	}
	if c.ClusterOf[0] != c.ClusterOf[1] {
		t.Error("c1 and c2 (3 shared values) should cluster together")
	}
	if c.ClusterOf[2] != c.ClusterOf[3] {
		t.Error("c3 and c4 should cluster together")
	}
	if c.ClusterOf[0] == c.ClusterOf[2] {
		t.Error("the single shared homograph must not merge the two types")
	}
}

func TestClusterMeaningCounts(t *testing.T) {
	g := multiColumnTypes()
	c := ClusterAttributes(g, 0.3, 2)
	meanings := c.MeaningCounts(g)
	jaguar, _ := g.ValueNode("JAGUAR")
	if meanings[jaguar] != 2 {
		t.Errorf("JAGUAR meanings = %d, want 2", meanings[jaguar])
	}
	a4, _ := g.ValueNode("A4") // two columns, one type
	if meanings[a4] != 1 {
		t.Errorf("A4 meanings = %d, want 1", meanings[a4])
	}
}

func TestClusterAttributesDefaults(t *testing.T) {
	g := multiColumnTypes()
	c := ClusterAttributes(g, 0, 0) // defaults 0.15 / 2
	if c.NumClusters != 2 {
		t.Errorf("clusters with defaults = %d, want 2", c.NumClusters)
	}
}

func TestClusterAttributesSBRecoversTwoMeanings(t *testing.T) {
	// On the synthetic benchmark the planted non-abbreviation homographs
	// bridge exactly two semantic types; attribute clustering should report
	// exactly 2 meanings for nearly all of them.
	sb := datagen.NewSB(1)
	g := bipartite.FromLake(sb.Lake, bipartite.Options{})
	c := ClusterAttributes(g, 0, 0)
	meanings := c.MeaningCounts(g)
	truth := sb.HomographSet()
	exact2 := 0
	for u := 0; u < g.NumValues(); u++ {
		v := g.Value(int32(u))
		if truth[v] && len(v) > 2 { // skip the code/abbreviation collapse
			if meanings[u] == 2 {
				exact2++
			}
		}
	}
	if exact2 < 30 {
		t.Errorf("only %d homographs recovered exactly 2 meanings", exact2)
	}
}

func TestClusterAttributesEmptyGraph(t *testing.T) {
	g := bipartite.FromAttributes(nil, bipartite.Options{})
	c := ClusterAttributes(g, 0, 0)
	if c.NumClusters != 0 || len(c.ClusterOf) != 0 {
		t.Errorf("empty graph clustering = %+v", c)
	}
}
