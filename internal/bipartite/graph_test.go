package bipartite

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"domainnet/internal/lake"
)

func simpleAttrs() []lake.Attribute {
	return lake.NewAttributes([]lake.Spec{
		{ID: "t.a", Values: []string{"A", "B", "C"}},
		{ID: "t.b", Values: []string{"B", "C", "D"}},
		{ID: "t.c", Values: []string{"E"}},
	})
}

func TestFromAttributesShape(t *testing.T) {
	g := FromAttributes(simpleAttrs(), Options{KeepSingletons: true})
	if g.NumValues() != 5 || g.NumAttrs() != 3 {
		t.Fatalf("values=%d attrs=%d, want 5/3", g.NumValues(), g.NumAttrs())
	}
	if g.NumEdges() != 7 {
		t.Errorf("edges = %d, want 7 (3+3+1)", g.NumEdges())
	}
	if err := g.CheckBipartite(); err != nil {
		t.Error(err)
	}
	if err := g.CheckSymmetric(); err != nil {
		t.Error(err)
	}
}

func TestSingletonFilterByAttributeCount(t *testing.T) {
	g := FromAttributes(simpleAttrs(), Options{})
	// A, D, E occur once (frequency 1) and are dropped; B, C remain.
	if g.NumValues() != 2 {
		t.Fatalf("values = %d, want 2 (singletons dropped)", g.NumValues())
	}
	for _, v := range []string{"B", "C"} {
		if _, ok := g.ValueNode(v); !ok {
			t.Errorf("%s missing", v)
		}
	}
	if _, ok := g.ValueNode("A"); ok {
		t.Error("singleton A should be dropped")
	}
	// Attribute nodes remain even when values were dropped.
	if g.NumAttrs() != 3 {
		t.Errorf("attrs = %d, want 3", g.NumAttrs())
	}
}

func TestSingletonFilterByFrequency(t *testing.T) {
	// X occurs twice within one column: frequency 2, kept despite appearing
	// in a single attribute (paper keeps such values; they become degree-1
	// value nodes).
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "t.a", Values: []string{"X", "Y"}, Freqs: []int{2, 1}},
	})
	g := FromAttributes(attrs, Options{})
	if _, ok := g.ValueNode("X"); !ok {
		t.Error("X (freq 2) should be kept")
	}
	if _, ok := g.ValueNode("Y"); ok {
		t.Error("Y (freq 1) should be dropped")
	}
}

func TestValueAndAttrAccessors(t *testing.T) {
	g := FromAttributes(simpleAttrs(), Options{KeepSingletons: true})
	u, ok := g.ValueNode("B")
	if !ok {
		t.Fatal("B missing")
	}
	if g.Value(u) != "B" || !g.IsValue(u) {
		t.Error("value accessor mismatch")
	}
	a := g.AttrNode(1)
	if g.AttrID(a) != "t.b" || !g.IsAttr(a) {
		t.Error("attr accessor mismatch")
	}
	// Cross-class accessors panic.
	mustPanic(t, func() { g.Value(a) })
	mustPanic(t, func() { g.AttrID(u) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestNeighborsSorted(t *testing.T) {
	g := FromAttributes(simpleAttrs(), Options{KeepSingletons: true})
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		nb := g.Neighbors(u)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("node %d neighbors not strictly sorted: %v", u, nb)
			}
		}
	}
}

func TestValueNeighborsAndCardinality(t *testing.T) {
	g := FromAttributes(simpleAttrs(), Options{KeepSingletons: true})
	b, _ := g.ValueNode("B")
	got := g.ValueNeighbors(b)
	names := make([]string, len(got))
	for i, u := range got {
		names[i] = g.Value(u)
	}
	if want := []string{"A", "C", "D"}; !reflect.DeepEqual(names, want) {
		t.Errorf("neighbors of B = %v, want %v", names, want)
	}
	if g.Cardinality(b) != 3 {
		t.Errorf("cardinality = %d, want 3", g.Cardinality(b))
	}
}

func TestGraphInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAttrs := 1 + rng.Intn(8)
		vocab := 2 + rng.Intn(25)
		specs := make([]lake.Spec, nAttrs)
		for a := range specs {
			card := 1 + rng.Intn(10)
			seen := map[int]struct{}{}
			var vals []string
			for len(vals) < card && len(seen) < vocab {
				v := rng.Intn(vocab)
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
				vals = append(vals, fmt.Sprintf("V%02d", v))
			}
			sortStrings(vals)
			specs[a] = lake.Spec{ID: fmt.Sprintf("t.c%d", a), Values: vals}
		}
		g := FromAttributes(lake.NewAttributes(specs), Options{KeepSingletons: seed%2 == 0})
		return g.CheckBipartite() == nil && g.CheckSymmetric() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestSubgraphAttributeSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := make([]lake.Spec, 30)
	for a := range specs {
		var vals []string
		for j := 0; j < 20; j++ {
			vals = append(vals, fmt.Sprintf("V%d", (a*7+j)%150))
		}
		sortStrings(vals)
		specs[a] = lake.Spec{ID: fmt.Sprintf("t.c%d", a), Values: vals}
	}
	g := FromAttributes(lake.NewAttributes(specs), Options{KeepSingletons: true})
	sub := g.Subgraph(200, rng)
	if sub.NumEdges() < 200 {
		t.Errorf("subgraph edges = %d, want >= 200", sub.NumEdges())
	}
	if sub.NumEdges() > g.NumEdges() {
		t.Errorf("subgraph larger than parent: %d > %d", sub.NumEdges(), g.NumEdges())
	}
	if err := sub.CheckBipartite(); err != nil {
		t.Error(err)
	}
	// Requesting more edges than exist returns the whole graph.
	all := g.Subgraph(1<<20, rng)
	if all.NumEdges() != g.NumEdges() {
		t.Errorf("full subgraph edges = %d, want %d", all.NumEdges(), g.NumEdges())
	}
}

func TestSubgraphPanics(t *testing.T) {
	g := FromAttributes(simpleAttrs(), Options{KeepSingletons: true})
	mustPanic(t, func() { g.Subgraph(0, rand.New(rand.NewSource(1))) })
}

// CheckBipartite verifies that no edge connects two nodes of the same class
// (value-value, attr-attr, or row-row). It returns a descriptive error on
// the first violation.
func (g *Graph) CheckBipartite() error {
	class := func(u int32) int {
		switch {
		case g.IsValue(u):
			return 0
		case g.IsAttr(u):
			return 1
		default:
			return 2
		}
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		cu := class(u)
		for _, v := range g.Neighbors(u) {
			if class(v) == cu {
				return fmt.Errorf("bipartite: edge between same-class nodes %d and %d (class %d)", u, v, cu)
			}
		}
	}
	return nil
}

// CheckSymmetric verifies that every directed arc has its reverse, i.e. the
// CSR encodes an undirected graph.
func (g *Graph) CheckSymmetric() error {
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.hasEdge(v, u) {
				return fmt.Errorf("bipartite: arc %d->%d has no reverse", u, v)
			}
		}
	}
	return nil
}

func (g *Graph) hasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}
