package bipartite

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// checkDiff verifies the Diff contract against the graphs it relates:
// PrevToNew is injective and in range, Dirty is ascending, and — the
// property the scoring layers lean on — every new node absent from Dirty
// has a pre-image whose previous neighbor set, pushed through PrevToNew,
// is exactly its new neighbor set.
func checkDiff(t *testing.T, prev, g *Graph, diff *Diff) {
	t.Helper()
	if len(diff.PrevToNew) != prev.NumNodes() {
		t.Fatalf("PrevToNew covers %d nodes, prev has %d", len(diff.PrevToNew), prev.NumNodes())
	}
	n := g.NumNodes()
	prevOf := make([]int32, n)
	for u := range prevOf {
		prevOf[u] = -1
	}
	for p, nw := range diff.PrevToNew {
		if nw < 0 {
			continue
		}
		if int(nw) >= n {
			t.Fatalf("PrevToNew[%d] = %d out of range (n=%d)", p, nw, n)
		}
		if prevOf[nw] >= 0 {
			t.Fatalf("PrevToNew not injective: new node %d has pre-images %d and %d", nw, prevOf[nw], p)
		}
		prevOf[nw] = int32(p)
	}
	if !slices.IsSorted(diff.Dirty) {
		t.Fatalf("Dirty not ascending: %v", diff.Dirty)
	}
	dirty := make(map[int32]bool, len(diff.Dirty))
	for _, u := range diff.Dirty {
		if u < 0 || int(u) >= n {
			t.Fatalf("dirty node %d out of range (n=%d)", u, n)
		}
		dirty[u] = true
	}
	for u := int32(0); int(u) < n; u++ {
		if dirty[u] {
			continue
		}
		p := prevOf[u]
		if p < 0 {
			t.Fatalf("clean new node %d has no pre-image", u)
		}
		mapped := make([]int32, 0, len(prev.Neighbors(p)))
		for _, v := range prev.Neighbors(p) {
			nw := diff.PrevToNew[v]
			if nw < 0 {
				t.Fatalf("clean node %d (pre-image %d) had an edge to dropped node %d", u, p, v)
			}
			mapped = append(mapped, nw)
		}
		slices.Sort(mapped)
		got := slices.Clone(g.Neighbors(u))
		slices.Sort(got)
		if !slices.Equal(mapped, got) {
			t.Fatalf("clean node %d changed adjacency: prev(mapped)=%v new=%v", u, mapped, got)
		}
	}
}

func TestRebuildDiffFilteredAppendIsStructurallyClean(t *testing.T) {
	// Appending a value that stays under the retention threshold changes
	// the attribute's content but not the graph's adjacency: the diff must
	// be non-Full with an empty dirty set — the pure-carry scoring case.
	l := rebuildLake(t)
	prev := FromLake(l, Options{})
	l.RemoveTable("animals")
	l.MustAdd(table.New("animals").
		AddColumn("name", "Jaguar", "Puma", "Panda", "Lemur", "Zebra").
		AddColumn("zoo", "Memphis", "Atlanta", "San Diego", "Memphis"))
	// The re-added table moved to the end of the lake order; prime a
	// baseline at that order first so the next rebuild sees stable
	// survivor order (the serving layer's publishes do the same).
	attrs := l.Attributes()
	base, _ := RebuildDiff(prev, attrs, Options{})
	l.RemoveTable("animals")
	l.MustAdd(table.New("animals").
		AddColumn("name", "Jaguar", "Puma", "Panda", "Lemur", "Okapi").
		AddColumn("zoo", "Memphis", "Atlanta", "San Diego", "Memphis"))
	attrs = l.Attributes()
	g, diff := RebuildDiff(base, attrs, Options{})
	if diff == nil || diff.Full {
		t.Fatalf("expected an incremental diff, got %+v", diff)
	}
	if len(diff.Dirty) != 0 {
		t.Fatalf("singleton-filtered append should leave no dirty nodes, got %v", diff.Dirty)
	}
	if !g.Equal(FromAttributes(attrs, Options{})) {
		t.Fatal("incremental graph diverged from scratch build")
	}
	checkDiff(t, base, g, diff)
}

func TestRebuildDiffStructuralAddDirtiesTouchedNodes(t *testing.T) {
	l := rebuildLake(t)
	// Pad the lake with disjoint-vocabulary tables so the four attributes
	// the add below touches stay under the rebuild churn threshold.
	for i := 0; i < 4; i++ {
		l.MustAdd(table.New(fmt.Sprintf("pad%d", i)).
			AddColumn("a", fmt.Sprintf("PadA%d", i), fmt.Sprintf("PadB%d", i)).
			AddColumn("b", fmt.Sprintf("PadA%d", i), fmt.Sprintf("PadC%d", i)))
	}
	prev := FromLake(l, Options{})
	l.MustAdd(table.New("cities").
		AddColumn("city", "Memphis", "Atlanta", "Berlin").
		AddColumn("country", "USA", "USA", "Germany"))
	attrs := l.Attributes()
	g, diff := RebuildDiff(prev, attrs, Options{})
	if diff == nil || diff.Full {
		t.Fatalf("expected an incremental diff, got %+v", diff)
	}
	if len(diff.Dirty) == 0 {
		t.Fatal("adding a table with retained values must dirty nodes")
	}
	// The new attribute nodes carry edges, so they must be dirty, and every
	// clean node must still match its pre-image (checkDiff).
	newAttrs := 0
	for _, u := range diff.Dirty {
		if g.IsAttr(u) {
			newAttrs++
		}
	}
	if newAttrs == 0 {
		t.Fatalf("no dirty attribute nodes in %v", diff.Dirty)
	}
	checkDiff(t, prev, g, diff)
}

func TestRebuildDiffRandomChurn(t *testing.T) {
	vocab := []string{
		"Jaguar", "Puma", "Panda", "Lemur", "Fox", "Colt", "Aspen",
		"Memphis", "Atlanta", "Berlin", "Tokyo", "Lima", "Oslo",
		"Fiat", "Toyota", "Apple", "Quartz", "Basalt", "Gneiss",
	}
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("keep=%v", keep), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			opts := Options{KeepSingletons: keep, Workers: 2}
			l := lake.New("diff-churn")
			next := 0
			addRandom := func() {
				tb := table.New(fmt.Sprintf("t%03d", next))
				next++
				cols := 1 + rng.Intn(3)
				for c := 0; c < cols; c++ {
					rows := 1 + rng.Intn(5)
					vals := make([]string, rows)
					for r := range vals {
						vals[r] = vocab[rng.Intn(len(vocab))]
					}
					tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
				}
				l.MustAdd(tb)
			}
			addRandom()
			g := FromLake(l, opts)
			incremental := 0
			for step := 0; step < 40; step++ {
				prev := g
				if n := l.NumTables(); n > 1 && rng.Intn(3) == 0 {
					victim := l.Tables()[rng.Intn(n)].Name
					if !l.RemoveTable(victim) {
						t.Fatalf("step %d: %s not removed", step, victim)
					}
				} else {
					addRandom()
				}
				attrs := l.Attributes()
				var diff *Diff
				g, diff = RebuildDiff(prev, attrs, opts)
				scratch := FromAttributes(attrs, opts)
				if !g.Equal(scratch) {
					t.Fatalf("step %d: incremental graph diverged from scratch build", step)
				}
				if diff == nil {
					if g != prev {
						t.Fatalf("step %d: nil diff for a changed graph", step)
					}
					continue
				}
				if diff.Full {
					continue
				}
				incremental++
				checkDiff(t, prev, g, diff)
			}
			if incremental == 0 {
				t.Fatal("churn sequence never produced an incremental diff")
			}
		})
	}
}

// FuzzRebuildDiff drives add, remove and modify sequences over a small
// vocabulary, with the singleton filter on and off. At every step the
// rebuilt graph must equal a scratch build and its Diff must hold the Diff
// contract; wherever both rebuilds are incremental, the Diff must equal the
// one the reference rebuild (parent_rebuild_test.go) reports.
func FuzzRebuildDiff(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for range 16 {
		ops := make([]byte, 512)
		rng.Read(ops)
		f.Add(ops, false)
		f.Add(ops, true)
	}
	vocab := []string{"Jaguar", "Puma", "Panda", "Lemur", "Fox", "Memphis",
		"Atlanta", "Berlin", "Lima", "Fiat", "Apple", "Quartz"}
	f.Fuzz(func(t *testing.T, ops []byte, keep bool) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		fill := func(tb *table.Table, cols int) *table.Table {
			for c := range cols {
				vals := make([]string, 1+next()%5)
				for r := range vals {
					vals[r] = vocab[next()%len(vocab)]
				}
				tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
			}
			return tb
		}
		opts := Options{KeepSingletons: keep, Workers: 1}
		l := lake.New("fuzz")
		var g *Graph
		var pg *parentGraph
		names := 0
		for step := 0; step < 48 && len(ops) > 0; step++ {
			switch op, n := next()%4, l.NumTables(); {
			case op == 1 && n > 0:
				l.RemoveTable(l.Tables()[next()%n].Name)
			case op == 2 && n > 0:
				// Modify: the same name and column names, other cells.
				old := l.Tables()[next()%n]
				l.RemoveTable(old.Name)
				l.MustAdd(fill(table.New(old.Name), len(old.Columns)))
			default:
				names++
				l.MustAdd(fill(table.New(fmt.Sprintf("t%d", names)), 1+next()%3))
			}
			attrs := l.Attributes()
			prev := g
			var diff, pdiff *Diff
			g, diff = RebuildDiff(g, attrs, opts)
			pg, pdiff = parentRebuildDiff(pg, attrs, opts)
			if !g.Equal(FromAttributes(attrs, opts)) {
				t.Fatalf("step %d: rebuilt graph differs from a scratch build", step)
			}
			for u, v := range g.Values() {
				if g.keys != nil && g.keys[u] != valueKey(v) {
					t.Fatalf("step %d: value %d (%q) carries key %x", step, u, v, g.keys[u])
				}
			}
			if (diff == nil) != (pdiff == nil) || (diff == nil && g != prev) {
				t.Fatalf("step %d: diff %+v, reference %+v", step, diff, pdiff)
			}
			if diff == nil || diff.Full {
				continue
			}
			checkDiff(t, prev, g, diff)
			if !pdiff.Full && !reflect.DeepEqual(diff, pdiff) {
				t.Fatalf("step %d: diff %+v, reference %+v", step, diff, pdiff)
			}
		}
	})
}
