package bipartite

// Parallel-construction tests: the graph must be bit-identical for every
// worker count, on generated lakes large enough to exercise real sharding.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// randomAttrs builds a synthetic attribute list with overlapping vocabularies
// so values span many attributes (and hash shards).
func randomAttrs(nAttr, vocab, perAttr int, seed int64) []lake.Attribute {
	return lake.NewAttributes(randomSpecs(nAttr, vocab, perAttr, seed))
}

func randomSpecs(nAttr, vocab, perAttr int, seed int64) []lake.Spec {
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, vocab)
	for i := range words {
		words[i] = "V" + string(rune('A'+i%26)) + string(rune('0'+i%10)) + string(rune('a'+(i/260)%26))
	}
	attrs := make([]lake.Spec, nAttr)
	for i := range attrs {
		seen := map[string]bool{}
		var vals []string
		for len(vals) < perAttr {
			w := words[rng.Intn(vocab)]
			if !seen[w] {
				seen[w] = true
				vals = append(vals, w)
			}
		}
		attrs[i] = lake.Spec{ID: "attr-" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Values: vals}
	}
	return attrs
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for u := int32(0); int(u) < a.NumNodes(); u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("node %d: degree %d vs %d", u, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d: neighbor[%d] = %d vs %d", u, i, na[i], nb[i])
			}
		}
	}
	for u := 0; u < a.NumValues(); u++ {
		if a.Value(int32(u)) != b.Value(int32(u)) {
			t.Fatalf("value node %d: %q vs %q", u, a.Value(int32(u)), b.Value(int32(u)))
		}
	}
	for i := 0; i < a.NumAttrs(); i++ {
		if a.AttrID(a.AttrNode(i)) != b.AttrID(b.AttrNode(i)) {
			t.Fatalf("attr %d id differs", i)
		}
	}
}

// TestFromAttributesWorkerCountInvariant checks all three builders that
// share the CSR assembly — the full build, an incremental rebuild over a
// random churn step, and the tripartite row graph — against their
// single-worker output.
func TestFromAttributesWorkerCountInvariant(t *testing.T) {
	attrs := randomAttrs(60, 400, 25, 3)
	// One churn step: drop three attributes, modify two, append two.
	rng := rand.New(rand.NewSource(5))
	churned := slices.Delete(slices.Clone(attrs), 10, 13)
	syms := lake.SymbolsOf(attrs)
	for _, i := range []int{20, 40} {
		vals := churned[i].Values()
		vals[rng.Intn(len(vals))] = "FRESH" + churned[i].ID
		churned[i] = syms.Attributes([]lake.Spec{{ID: churned[i].ID, Values: vals}})[0]
	}
	added := randomSpecs(2, 400, 25, 9)
	added[0].ID, added[1].ID = "new-1", "new-2"
	churned = append(churned, syms.Attributes(added)...)
	rows := repeatingRowsLake(rng)

	builders := []struct {
		name  string
		build func(t *testing.T, opts Options) *Graph
	}{
		{"full", func(t *testing.T, opts Options) *Graph { return FromAttributes(attrs, opts) }},
		{"rebuild", func(t *testing.T, opts Options) *Graph {
			g, diff := RebuildDiff(FromAttributes(attrs, opts), churned, opts)
			if diff == nil || diff.Full {
				t.Fatalf("churn step did not take the incremental path: %+v", diff)
			}
			return g
		}},
		{"rows", func(t *testing.T, opts Options) *Graph { return FromLakeWithRows(rows, opts) }},
	}
	for _, b := range builders {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/keep=%v", b.name, keep), func(t *testing.T) {
				serial := b.build(t, Options{KeepSingletons: keep, Workers: 1})
				if err := serial.CheckBipartite(); err != nil {
					t.Fatal(err)
				}
				if err := serial.CheckSymmetric(); err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{2, 3, 8, 0} {
					if parallel := b.build(t, Options{KeepSingletons: keep, Workers: w}); !parallel.Equal(serial) {
						graphsEqual(t, serial, parallel)
						t.Fatalf("workers=%d: graph differs from the single-worker build", w)
					}
				}
			})
		}
	}
}

// repeatingRowsLake builds a lake of overlapping-vocabulary tables whose rows
// repeat values across columns and leave some cells empty, so the
// tripartite builder's row dedup and missing-cell paths run.
func repeatingRowsLake(rng *rand.Rand) *lake.Lake {
	l := lake.New("rows")
	for ti := 0; ti < 8; ti++ {
		tb := table.New(fmt.Sprintf("t%d", ti))
		nRows, nCols := 10+rng.Intn(20), 2+rng.Intn(3)
		for c := 0; c < nCols; c++ {
			vals := make([]string, nRows)
			for r := range vals {
				if rng.Intn(10) > 0 {
					vals[r] = fmt.Sprintf("w%d", rng.Intn(120))
				}
			}
			tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
		}
		l.MustAdd(tb)
	}
	return l
}

func TestFromAttributesWithFreqsWorkerInvariant(t *testing.T) {
	// Freqs drive the singleton filter; the sharded counting pass must sum
	// them identically.
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "a", Values: []string{"x", "y", "z"}, Freqs: []int{1, 2, 1}},
		{ID: "b", Values: []string{"x", "w"}, Freqs: []int{1, 1}},
	})
	serial := FromAttributes(attrs, Options{Workers: 1})
	parallel := FromAttributes(attrs, Options{Workers: 4})
	graphsEqual(t, serial, parallel)
	// x (2 cells across attrs) and y (freq 2) survive; z and w are singletons.
	if _, ok := serial.ValueNode("x"); !ok {
		t.Error("x should be retained")
	}
	if _, ok := serial.ValueNode("y"); !ok {
		t.Error("y should be retained")
	}
	if _, ok := serial.ValueNode("z"); ok {
		t.Error("z is a singleton and should be dropped")
	}
}

func TestFromAttributesEmpty(t *testing.T) {
	g := FromAttributes(nil, Options{})
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty input produced %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	g = FromAttributes(lake.NewAttributes([]lake.Spec{{ID: "a"}}), Options{Workers: 4})
	if g.NumValues() != 0 || g.NumAttrs() != 1 {
		t.Fatalf("valueless attribute: %d values %d attrs", g.NumValues(), g.NumAttrs())
	}
}
