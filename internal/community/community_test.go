package community

import (
	"testing"
	"testing/quick"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/lake"
)

// twoTypeGraph builds a lake with two well-separated semantic types
// (animals, cars) and one homograph JAGUAR bridging them.
func twoTypeGraph() *bipartite.Graph {
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "zoo.a", Values: []string{"JAGUAR", "LEMUR", "PANDA", "TIGER", "ZEBRA"}},
		{ID: "risk.a", Values: []string{"LEMUR", "OKAPI", "PANDA", "TIGER", "ZEBRA"}},
		{ID: "cars.m", Values: []string{"CIVIC", "COROLLA", "GOLF", "JAGUAR", "POLO"}},
		{ID: "deal.m", Values: []string{"CIVIC", "COROLLA", "GOLF", "POLO", "YARIS"}},
	})
	return bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
}

func TestLabelPropagationFindsTwoTypes(t *testing.T) {
	g := twoTypeGraph()
	res := LabelPropagation(g, Options{Seed: 1})
	// The two animal attributes must share a label, the two car attributes
	// must share a label, and the two labels must differ.
	zoo := res.Labels[g.AttrNode(0)]
	risk := res.Labels[g.AttrNode(1)]
	cars := res.Labels[g.AttrNode(2)]
	deal := res.Labels[g.AttrNode(3)]
	if zoo != risk {
		t.Errorf("animal attributes split: %d vs %d", zoo, risk)
	}
	if cars != deal {
		t.Errorf("car attributes split: %d vs %d", cars, deal)
	}
	if zoo == cars {
		t.Error("animal and car attributes merged into one community")
	}
}

func TestMeaningCountsOnBridge(t *testing.T) {
	g := twoTypeGraph()
	res := LabelPropagation(g, Options{Seed: 1})
	meanings := MeaningCounts(g, res)
	jaguar, _ := g.ValueNode("JAGUAR")
	if meanings[jaguar] != 2 {
		t.Errorf("JAGUAR meanings = %d, want 2", meanings[jaguar])
	}
	for _, v := range []string{"PANDA", "CIVIC", "GOLF", "LEMUR"} {
		u, _ := g.ValueNode(v)
		if meanings[u] != 1 {
			t.Errorf("%s meanings = %d, want 1", v, meanings[u])
		}
	}
}

func TestLabelPropagationDeterministic(t *testing.T) {
	g := twoTypeGraph()
	a := LabelPropagation(g, Options{Seed: 42})
	b := LabelPropagation(g, Options{Seed: 42})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("node %d: labels differ under same seed", i)
		}
	}
}

func TestLabelPropagationConverges(t *testing.T) {
	g := twoTypeGraph()
	res := LabelPropagation(g, Options{Seed: 1})
	if res.Iterations >= 50 {
		t.Errorf("did not converge in %d iterations", res.Iterations)
	}
}

func TestLabelsCompact(t *testing.T) {
	f := func(seed int64) bool {
		g := twoTypeGraph()
		res := LabelPropagation(g, Options{Seed: seed})
		seen := map[int32]bool{}
		for _, l := range res.Labels {
			if l < 0 || int(l) >= res.NumCommunities {
				return false
			}
			seen[l] = true
		}
		return len(seen) == res.NumCommunities
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestModularityPositiveOnClusteredGraph(t *testing.T) {
	g := twoTypeGraph()
	res := LabelPropagation(g, Options{Seed: 1})
	q := Modularity(g, res)
	if q <= 0 {
		t.Errorf("modularity = %v, want > 0 for a clustered lake", q)
	}
	if q > 1 {
		t.Errorf("modularity = %v, out of range", q)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := bipartite.FromAttributes(nil, bipartite.Options{})
	res := LabelPropagation(g, Options{Seed: 1})
	if q := Modularity(g, res); q != 0 {
		t.Errorf("empty-graph modularity = %v, want 0", q)
	}
}

func TestMeaningDiscoveryOnSB(t *testing.T) {
	// On the synthetic benchmark, community-based meaning estimation should
	// assign >= 2 meanings to a clear majority of the planted homographs
	// (they bridge two semantic types by construction) while keeping the
	// median unambiguous value at 1 meaning.
	sb := datagen.NewSB(1)
	g := bipartite.FromLake(sb.Lake, bipartite.Options{})
	res := LabelPropagation(g, Options{Seed: 1})
	meanings := MeaningCounts(g, res)
	truth := sb.HomographSet()

	homsWithMulti, homs := 0, 0
	unambMulti, unamb := 0, 0
	for u := 0; u < g.NumValues(); u++ {
		v := g.Value(int32(u))
		if truth[v] {
			homs++
			if meanings[u] >= 2 {
				homsWithMulti++
			}
		} else {
			unamb++
			if meanings[u] >= 2 {
				unambMulti++
			}
		}
	}
	if homs != 55 {
		t.Fatalf("homographs in graph = %d, want 55", homs)
	}
	if frac := float64(homsWithMulti) / float64(homs); frac < 0.5 {
		t.Errorf("only %.0f%% of homographs got >= 2 estimated meanings", 100*frac)
	}
	if frac := float64(unambMulti) / float64(unamb); frac > 0.5 {
		t.Errorf("%.0f%% of unambiguous values got >= 2 meanings — communities too fragmented", 100*frac)
	}
}

func TestLabelPropagationOnCooccurGraphInterface(t *testing.T) {
	// The algorithm runs over any Graph; a single-attribute lake collapses
	// to one community.
	attrs := lake.NewAttributes([]lake.Spec{{ID: "t.a", Values: []string{"A", "B", "C", "D"}}})
	g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
	res := LabelPropagation(g, Options{Seed: 1})
	if res.NumCommunities != 1 {
		t.Errorf("communities = %d, want 1", res.NumCommunities)
	}
}
