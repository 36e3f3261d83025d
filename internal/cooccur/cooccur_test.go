package cooccur

import (
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
)

func TestFromAttributesCliquePerColumn(t *testing.T) {
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "t.a", Values: []string{"A", "B", "C"}},
	})
	g := FromAttributes(attrs)
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// One column of 3 values: C(3,2) = 3 edges.
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3", g.NumEdges())
	}
}

func TestFromAttributesDeduplicatesSharedPairs(t *testing.T) {
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "t.a", Values: []string{"A", "B"}},
		{ID: "t.b", Values: []string{"A", "B"}},
	})
	g := FromAttributes(attrs)
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (pair A-B deduplicated)", g.NumEdges())
	}
}

func TestFigure3aCooccurrenceGraph(t *testing.T) {
	// The paper's Figure 3a: removing Puma and Jaguar disconnects the
	// remaining values into two components.
	g := FromAttributes(figure1FourAttributes())
	if g.NumNodes() != 8 {
		t.Fatalf("nodes = %d, want 8", g.NumNodes())
	}
	jaguar, _ := g.ValueNode("JAGUAR")
	puma, _ := g.ValueNode("PUMA")
	banned := map[int32]bool{jaguar: true, puma: true}
	// BFS from PANDA must not reach TOYOTA without the banned nodes.
	panda, _ := g.ValueNode("PANDA")
	toyota, _ := g.ValueNode("TOYOTA")
	seen := map[int32]bool{panda: true}
	queue := []int32{panda}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if banned[w] || seen[w] {
				continue
			}
			seen[w] = true
			queue = append(queue, w)
		}
	}
	if seen[toyota] {
		t.Error("animal and car communities should disconnect once Jaguar and Puma are removed")
	}
}

func TestEstimateEdgesQuadraticBlowup(t *testing.T) {
	// §3.2: a single column of 100 values has 100 incidence entries but
	// 100*99/2 = 4950 co-occurrence edges.
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	attrs := lake.NewAttributes([]lake.Spec{{ID: "t.big", Values: vals}})
	pairs, cells := EstimateEdges(attrs)
	if pairs != 4950 {
		t.Errorf("pair bound = %d, want 4950", pairs)
	}
	if cells != 100 {
		t.Errorf("cells = %d, want 100", cells)
	}
}

func TestFromLakeMatchesAttributes(t *testing.T) {
	l := datagen.Figure1Lake()
	g1 := FromLake(l)
	g2 := FromAttributes(l.Attributes())
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Errorf("lake/attr mismatch: %d/%d nodes, %d/%d edges",
			g1.NumNodes(), g2.NumNodes(), g1.NumEdges(), g2.NumEdges())
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	g := FromAttributes(figure1FourAttributes())
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		nb := g.Neighbors(u)
		for i := range nb {
			if i > 0 && nb[i-1] >= nb[i] {
				t.Fatalf("node %d neighbors not sorted: %v", u, nb)
			}
			// Symmetry.
			back := g.Neighbors(nb[i])
			found := false
			for _, w := range back {
				if w == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", u, nb[i])
			}
		}
	}
}

// figure1FourAttributes returns just the four attributes of Example 3.1
// (T2.name, T1.At Risk, T4.Name, T3.C2), the subset behind Figures 2 and 3
// and the LCC/BC values of Example 3.6.
func figure1FourAttributes() []lake.Attribute {
	return lake.NewAttributes([]lake.Spec{
		{ID: "T1.At Risk", Table: "T1", Column: "At Risk",
			Values: []string{"JAGUAR", "PANDA", "PELICAN", "PUMA"}},
		{ID: "T2.name", Table: "T2", Column: "name",
			Values: []string{"JAGUAR", "LEMUR", "PANDA"}, Freqs: []int{1, 1, 2}},
		{ID: "T3.C2", Table: "T3", Column: "C2",
			Values: []string{"FIAT", "JAGUAR", "TOYOTA"}},
		{ID: "T4.Name", Table: "T4", Column: "Name",
			Values: []string{"APPLE", "JAGUAR", "PUMA", "TOYOTA"}},
	})
}
