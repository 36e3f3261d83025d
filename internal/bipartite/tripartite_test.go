package bipartite

import (
	"testing"

	"domainnet/internal/lake"
	"domainnet/internal/table"
)

func rowLake(t *testing.T) *lake.Lake {
	t.Helper()
	l := lake.New("rows")
	l.MustAdd(table.New("t1").
		AddColumn("a", "X", "Y").
		AddColumn("b", "P", "Q"))
	l.MustAdd(table.New("t2").
		AddColumn("c", "X", "Q"))
	return l
}

func TestTripartiteShape(t *testing.T) {
	l := rowLake(t)
	g := FromLakeWithRows(l, Options{KeepSingletons: true})
	if g.NumValues() != 4 {
		t.Fatalf("values = %d, want 4 (X, Y, P, Q)", g.NumValues())
	}
	if g.NumAttrs() != 3 {
		t.Fatalf("attrs = %d, want 3", g.NumAttrs())
	}
	// 2 rows in t1 + 2 rows in t2, all touching at least one value.
	if g.NumRows() != 4 {
		t.Fatalf("row nodes = %d, want 4", g.NumRows())
	}
	if err := g.CheckBipartite(); err != nil {
		t.Error(err)
	}
	if err := g.CheckSymmetric(); err != nil {
		t.Error(err)
	}
	// value-attr edges: 6; row-value edges: rows of t1 contribute 2 each,
	// rows of t2 contribute 1 each -> 6. Total 12.
	if g.NumEdges() != 12 {
		t.Errorf("edges = %d, want 12", g.NumEdges())
	}
}

func TestTripartiteRowLinksValuesAcrossColumns(t *testing.T) {
	l := rowLake(t)
	g := FromLakeWithRows(l, Options{KeepSingletons: true})
	x, _ := g.ValueNode("X")
	// X is in row 0 of t1 together with P: they are at distance 2 via the
	// row node, even though they never share a column.
	p, _ := g.ValueNode("P")
	found := false
	for _, r := range g.Neighbors(x) {
		if g.IsAttr(r) {
			continue
		}
		for _, w := range g.Neighbors(r) {
			if w == p {
				found = true
			}
		}
	}
	if !found {
		t.Error("row node should connect X and P")
	}
}

func TestTripartiteDropsSingletonValuesConsistently(t *testing.T) {
	l := rowLake(t)
	bi := FromLake(l, Options{})
	tri := FromLakeWithRows(l, Options{})
	if bi.NumValues() != tri.NumValues() {
		t.Errorf("value nodes differ: bipartite %d, tripartite %d", bi.NumValues(), tri.NumValues())
	}
	// Only X and Q survive the frequency filter (each in two columns).
	if bi.NumValues() != 2 {
		t.Errorf("values = %d, want 2", bi.NumValues())
	}
}

func TestTripartiteRowDedupsValuesAndSkipsEmptyRows(t *testing.T) {
	l := lake.New("dedup")
	// Row 0 repeats X across both columns; row 1 is empty in both.
	l.MustAdd(table.New("t").
		AddColumn("a", "X", "", "Y").
		AddColumn("b", " x", "", "X"))
	g := FromLakeWithRows(l, Options{KeepSingletons: true})
	if g.NumRows() != 2 {
		t.Fatalf("row nodes = %d, want 2 (the empty row gets none)", g.NumRows())
	}
	x, _ := g.ValueNode("X")
	first := int32(g.NumValues() + g.NumAttrs())
	if got := g.Neighbors(first); len(got) != 1 || got[0] != x {
		t.Errorf("row 0 neighbors = %v, want just X (%d)", got, x)
	}
	if err := g.CheckSymmetric(); err != nil {
		t.Error(err)
	}
}
