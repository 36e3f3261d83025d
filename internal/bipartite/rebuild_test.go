package bipartite

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// rebuildLake builds a small lake whose vocabulary overlaps across tables,
// so removals and additions exercise singleton-threshold flips.
func rebuildLake(t *testing.T) *lake.Lake {
	t.Helper()
	l := lake.New("rebuild")
	l.MustAdd(table.New("animals").
		AddColumn("name", "Jaguar", "Puma", "Panda", "Lemur").
		AddColumn("zoo", "Memphis", "Atlanta", "San Diego", "Memphis"))
	l.MustAdd(table.New("cars").
		AddColumn("make", "Jaguar", "Fiat", "Toyota").
		AddColumn("country", "UK", "Italy", "Japan"))
	l.MustAdd(table.New("companies").
		AddColumn("name", "Puma", "Apple", "Toyota", "Fiat").
		AddColumn("hq", "Germany", "USA", "Japan", "Italy"))
	return l
}

func rebuildAfter(t *testing.T, prev *Graph, l *lake.Lake, opts Options) *Graph {
	t.Helper()
	attrs := l.Attributes()
	g, _ := RebuildDiff(prev, attrs, opts)
	return g
}

func TestRebuildMatchesScratchOnAdd(t *testing.T) {
	for _, opts := range []Options{{}, {KeepSingletons: true}} {
		t.Run(fmt.Sprintf("keep=%v", opts.KeepSingletons), func(t *testing.T) {
			l := rebuildLake(t)
			prev := FromLake(l, opts)
			// "Memphis" and "Panda" were singleton-filtered or low-degree
			// before; the new table flips MEMPHIS (occ 2 -> 3) hosts and
			// makes GERMANY a homograph candidate.
			l.MustAdd(table.New("cities").
				AddColumn("city", "Memphis", "Atlanta", "Berlin").
				AddColumn("country", "USA", "USA", "Germany"))
			inc := rebuildAfter(t, prev, l, opts)
			scratch := FromLake(l, opts)
			if !inc.Equal(scratch) {
				t.Fatal("incremental add produced a different graph than scratch build")
			}
			if err := inc.CheckBipartite(); err != nil {
				t.Fatal(err)
			}
			if err := inc.CheckSymmetric(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRebuildMatchesScratchOnRemove(t *testing.T) {
	l := rebuildLake(t)
	prev := FromLake(l, Options{})
	if !l.RemoveTable("cars") {
		t.Fatal("cars not removed")
	}
	inc := rebuildAfter(t, prev, l, Options{})
	scratch := FromLake(l, Options{})
	if !inc.Equal(scratch) {
		t.Fatal("incremental remove produced a different graph than scratch build")
	}
	// JAGUAR loses its second occurrence and must drop out (singleton).
	if _, ok := inc.ValueNode("JAGUAR"); ok {
		t.Error("JAGUAR should be singleton-filtered after removing the cars table")
	}
}

func TestRebuildNoChangeReturnsPrev(t *testing.T) {
	l := rebuildLake(t)
	prev := FromLake(l, Options{})
	if got := rebuildAfter(t, prev, l, Options{}); got != prev {
		t.Error("RebuildDiff without changes should return the previous graph")
	}
}

// TestRebuildDiffOwnAttributesAllocatesNothing: handed the attribute slice
// its graph was built from — a server's seeded first publish — RebuildDiff
// returns the graph without matching the attributes one by one.
func TestRebuildDiffOwnAttributesAllocatesNothing(t *testing.T) {
	for _, opts := range []Options{{}, {KeepSingletons: true}} {
		l := rebuildLake(t)
		prev := FromAttributes(l.Attributes(), opts)
		allocs := testing.AllocsPerRun(20, func() {
			if g, d := RebuildDiff(prev, l.Attributes(), opts); g != prev || d != nil {
				t.Fatalf("RebuildDiff over the graph's own attributes = %p, %+v; want prev, nil", g, d)
			}
		})
		if allocs != 0 {
			t.Errorf("keep=%v: RebuildDiff over the graph's own attributes allocated %v times", opts.KeepSingletons, allocs)
		}
	}
}

func TestRebuildFallsBackSafely(t *testing.T) {
	l := rebuildLake(t)
	attrs := l.Attributes()
	scratch := FromAttributes(attrs, Options{})

	// Nil previous graph.
	if g, _ := RebuildDiff(nil, attrs, Options{}); !g.Equal(scratch) {
		t.Error("nil-prev RebuildDiff differs from scratch build")
	}
	// KeepSingletons mismatch.
	prevKeep := FromAttributes(attrs, Options{KeepSingletons: true})
	if g, _ := RebuildDiff(prevKeep, attrs, Options{}); !g.Equal(scratch) {
		t.Error("option-mismatch RebuildDiff differs from scratch build")
	}
	// Tripartite previous graph.
	tri := FromLakeWithRows(l, Options{})
	if g, _ := RebuildDiff(tri, attrs, Options{}); !g.Equal(scratch) {
		t.Error("tripartite-prev RebuildDiff differs from scratch build")
	}
}

// changed returns the indices (into attrs) of the attributes that are new
// or modified against prev's source attributes — the set RebuildDiff may not
// reuse from prev. Matching is by attribute ID, content by modified, which
// short-circuits on the shared backing arrays lake.Attributes hands back
// for untouched tables. prev must be built over attrs' symbol table.
func changed(prev *Graph, attrs []lake.Attribute) []int {
	byID := make(map[string]int, len(prev.srcAttrs))
	for p := range prev.srcAttrs {
		byID[prev.srcAttrs[p].ID] = p
	}
	var idx []int
	for i := range attrs {
		if p, ok := byID[attrs[i].ID]; !ok || modified(&attrs[i], &prev.srcAttrs[p]) {
			idx = append(idx, i)
		}
	}
	return idx
}

func TestChangedDetectsIdenticalAttributes(t *testing.T) {
	l := rebuildLake(t)
	g := FromLake(l, Options{})
	if ch := changed(g, l.Attributes()); len(ch) != 0 {
		t.Fatalf("unchanged lake reported changed attrs %v", ch)
	}
	l.MustAdd(table.New("extra").AddColumn("x", "Jaguar", "Quartz"))
	attrs := l.Attributes()
	ch := changed(g, attrs)
	if len(ch) != 1 || attrs[ch[0]].ID != "extra.x" {
		t.Fatalf("changed = %v, want just extra.x", ch)
	}
}

// TestRebuildRandomChurn drives a long random add/remove sequence through
// RebuildDiff and checks bit-identity against a scratch build at every step,
// across worker counts and the singleton-filter setting.
func TestRebuildRandomChurn(t *testing.T) {
	vocab := []string{
		"Jaguar", "Puma", "Panda", "Lemur", "Fox", "Colt", "Aspen",
		"Memphis", "Atlanta", "Berlin", "Tokyo", "Lima", "Oslo",
		"Fiat", "Toyota", "Apple", "Quartz", "Basalt", "Gneiss",
	}
	for _, keep := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("keep=%v/workers=%d", keep, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				opts := Options{KeepSingletons: keep, Workers: workers}
				l := lake.New("churn")
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
				for step := 0; step < 40; step++ {
					if n := l.NumTables(); n > 1 && rng.Intn(3) == 0 {
						victim := l.Tables()[rng.Intn(n)].Name
						if !l.RemoveTable(victim) {
							t.Fatalf("step %d: %s not removed", step, victim)
						}
					} else {
						addRandom()
					}
					attrs := l.Attributes()
					g, _ = RebuildDiff(g, attrs, opts)
					scratch := FromAttributes(attrs, opts)
					if !g.Equal(scratch) {
						t.Fatalf("step %d: incremental graph diverged from scratch build", step)
					}
				}
			})
		}
	}
}

// TestRebuildDiffHandsOffCounts: an incremental rebuild takes prev's
// occurrence counts, so a second rebuild from prev builds from scratch, and
// both equal a scratch build. A rebuild that falls back on cost decides so
// before touching prev, which stays good for an incremental rebuild.
func TestRebuildDiffHandsOffCounts(t *testing.T) {
	l := datagen.NewSB(1).Lake
	tables := l.Tables()
	prev := FromLake(l, Options{})
	l.MustAdd(table.New("extra").AddColumn("c", "ISO_1", "ISO_1", tables[0].Columns[0].Values[0]))
	attrs := l.Attributes()
	scratch := FromAttributes(attrs, Options{})
	if g, diff := RebuildDiff(prev, attrs, Options{}); diff == nil || diff.Full || !g.Equal(scratch) {
		t.Fatalf("first rebuild: diff %+v, equal %v", diff, g.Equal(scratch))
	}
	if g, diff := RebuildDiff(prev, attrs, Options{}); diff == nil || !diff.Full || !g.Equal(scratch) {
		t.Fatalf("second rebuild from a spent graph: diff %+v, equal %v", diff, g.Equal(scratch))
	}

	g := FromAttributes(attrs, Options{})
	if _, diff := RebuildDiff(g, attrs[2*len(attrs)/3:], Options{}); diff == nil || !diff.Full {
		t.Fatalf("dropping two thirds of the attributes: diff %+v, want a full build", diff)
	}
	less := attrs[:len(attrs)-1]
	if next, diff := RebuildDiff(g, less, Options{}); diff == nil || diff.Full || !next.Equal(FromAttributes(less, Options{})) {
		t.Fatalf("rebuild after a fallback: diff %+v", diff)
	}
}

// TestMergeKeys holds the in-place key merge of RebuildDiff to a merge into
// a new array: random drops and crossings, an addition before a dropped
// node at the same place included, with and without room to grow in place.
func TestMergeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := range 500 {
		n := rng.Intn(40)
		keys := make([]uint64, n, n+rng.Intn(8))
		for i := range keys {
			keys[i] = uint64(i) << 8
		}
		var dropped []int32
		for i := range n {
			if rng.Intn(4) == 0 {
				dropped = append(dropped, int32(i))
			}
		}
		var added []crossing
		for at := 0; at <= n; at++ {
			for rng.Intn(5) == 0 {
				added = append(added, crossing{at: int32(at), key: uint64(at)<<8 | uint64(len(added)+1)})
			}
		}
		var want []uint64
		a, d := 0, 0
		for vo := 0; vo <= n; vo++ {
			for ; a < len(added) && int(added[a].at) == vo; a++ {
				want = append(want, added[a].key)
			}
			switch {
			case vo == n:
			case d < len(dropped) && int(dropped[d]) == vo:
				d++
			default:
				want = append(want, keys[vo])
			}
		}
		inPlace := cap(keys)-n+len(dropped) >= len(added)
		var first *uint64
		if cap(keys) > 0 {
			first = &keys[:1][0]
		}
		got := mergeKeys(keys, added, dropped)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged %v, want %v (dropped %v, added %v)", trial, got, want, dropped, added)
		}
		if inPlace && len(got) > 0 && &got[0] != first {
			t.Fatalf("trial %d: the merge reallocated with room in place", trial)
		}
	}
}

// TestValuesReadWhileWriterInterns: a published graph reads its value
// strings through a frozen view of the lake's symbol table, so readers on
// other goroutines keep seeing its values while the writer interns more
// into that table — past a symbol chunk, through index rehashes — and
// rebuilds from it. Run with -race.
func TestValuesReadWhileWriterInterns(t *testing.T) {
	l := lake.New("interning")
	l.MustAdd(table.New("base").AddColumn("c", "JAGUAR", "JAGUAR", "PUMA", "PUMA"))
	g := FromLake(l, Options{})
	want := g.Values()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for u, v := range want {
					if got := g.Value(int32(u)); got != v {
						t.Errorf("value node %d reads %q, want %q", u, got, v)
						return
					}
					if n, ok := g.ValueNode(v); !ok || n != int32(u) {
						t.Errorf("ValueNode(%q) = %d, %v; want %d", v, n, ok, u)
						return
					}
				}
			}
		}()
	}
	next := g
	for round := range 50 {
		col := make([]string, 0, 200)
		for i := range 100 {
			v := fmt.Sprintf("V%d_%d", round, i)
			col = append(col, v, v)
		}
		l.MustAdd(table.New(fmt.Sprintf("t%02d", round)).AddColumn("c", col...))
		next, _ = RebuildDiff(next, l.Attributes(), Options{})
	}
	close(stop)
	wg.Wait()
	if got := next.NumValues(); got != 2+50*100 {
		t.Fatalf("%d values after the rounds, want %d", got, 2+50*100)
	}
}
