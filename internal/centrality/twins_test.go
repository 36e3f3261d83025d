package centrality

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/engine"
	"domainnet/internal/table"
)

// profileGraph builds a twin-rich bipartite graph: values [0, nv) each take
// one of a few attribute profiles (random attribute subsets; profile 0 is
// empty, so some values are isolated), attributes are [nv, nv+na). Values
// sharing a profile are twins. With shuffle every neighbor list is permuted,
// so equal sets may be listed in different orders.
func profileGraph(nv, na, profiles int, shuffle bool, rng *rand.Rand) *sliceGraph {
	g := newSliceGraph(nv + na)
	prof := make([][]int32, profiles)
	for p := 1; p < profiles; p++ {
		for a := 0; a < na; a++ {
			if rng.Float64() < 0.4 {
				prof[p] = append(prof[p], int32(nv+a))
			}
		}
	}
	for v := 0; v < nv; v++ {
		for _, a := range prof[rng.Intn(profiles)] {
			g.addEdge(int32(v), a)
		}
	}
	if shuffle {
		for _, nb := range g.adj {
			rng.Shuffle(len(nb), func(i, j int) { nb[i], nb[j] = nb[j], nb[i] })
		}
	}
	return g
}

func TestTwinClasses(t *testing.T) {
	g := &sliceGraph{adj: [][]int32{
		0: {5, 6},
		1: {5, 6},
		2: {6, 5}, // the same set as 0's, listed in another order
		3: {},
		4: {}, // degree 0, like 3
		5: {0, 1, 2, 7, 8},
		6: {0, 1, 2, 7, 8},
		7: {5, 6},
		8: {5, 6},
	}}
	for _, tc := range []struct {
		split    int
		reps     []int32
		weight   []float64
		classOf  []int32
		off, adj []int32
	}{
		{0, []int32{0, 2, 3, 4, 5}, []float64{4, 1, 1, 1, 2}, []int32{0, 0, 1, 2, 3, 4, 4, 0, 0},
			[]int32{0, 1, 2, 2, 2, 4}, []int32{4, 4, 0, 1}},
		// Nodes 7 and 8 are in the other endpoint class from 0 and 1.
		{7, []int32{0, 2, 3, 4, 5, 7}, []float64{2, 1, 1, 1, 2, 2}, []int32{0, 0, 1, 2, 3, 4, 4, 5, 5},
			[]int32{0, 1, 2, 2, 2, 5, 6}, []int32{4, 4, 0, 1, 5, 4}},
	} {
		got := twinClasses(g, tc.split)
		if !slices.Equal(got.reps, tc.reps) || !slices.Equal(got.weight, tc.weight) || !slices.Equal(got.classOf, tc.classOf) {
			t.Errorf("split %d: got reps %v weight %v classOf %v, want %v %v %v",
				tc.split, got.reps, got.weight, got.classOf, tc.reps, tc.weight, tc.classOf)
		}
		if !slices.Equal(got.off, tc.off) || !slices.Equal(got.adj, tc.adj) {
			t.Errorf("split %d: quotient CSR off %v adj %v, want %v %v", tc.split, got.off, got.adj, tc.off, tc.adj)
		}
	}
}

// TestGrouperChainsHashCollisions forces a collision: node 0's class is
// filed under the hash of the list {3} that nodes 1 and 2 share. Both must
// still land in one class, chained behind node 0's, so grouping does not
// depend on which list a hash saw first.
func TestGrouperChainsHashCollisions(t *testing.T) {
	g := &sliceGraph{adj: [][]int32{0: {4}, 1: {3}, 2: {3}, 3: {1, 2}, 4: {0}}}
	tw := twins{classOf: make([]int32, 5)}
	gr := grouper{first: map[uint64]int32{hashList([]int32{3}, false): tw.open(0)}}
	for u := int32(1); u < 3; u++ {
		tw.classOf[u] = gr.class(&tw, g, u, 0)
	}
	if tw.classOf[1] != 1 || tw.classOf[2] != 1 || !slices.Equal(tw.weight, []float64{1, 2}) {
		t.Errorf("colliding lists grouped as classOf %v, weight %v; want nodes 1 and 2 in class 1 of weight 2",
			tw.classOf[1:3], tw.weight)
	}
}

// TestTwinClassesSB pins how much the plan saves on the paper's benchmark.
func TestTwinClassesSB(t *testing.T) {
	g := bipartite.FromLake(datagen.NewSB(1).Lake, bipartite.Options{})
	got := twinClasses(g, 0)
	if g.NumNodes() != 5339 || len(got.reps) != 132 {
		t.Errorf("SB seed 1: %d classes over %d nodes, want 132 over 5339", len(got.reps), g.NumNodes())
	}
	if edges := len(got.adj) / 2; edges != 236 {
		t.Errorf("SB seed 1: %d class edges, want 236", edges)
	}
}

// TestTwinRichMatchesNaive holds the twin-class plan to the definitional
// oracle (betweenness) and to one BFS per node (harmonic, bit for bit) on
// graphs where most values have twins, with isolated nodes, shuffled lists
// and endpoint splits that cut classes apart.
func TestTwinRichMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nodes, folded := 0, 0
	for trial := 0; trial < 60; trial++ {
		nv, na := 10+rng.Intn(40), 2+rng.Intn(4)
		shuffle := trial%2 == 1
		g := profileGraph(nv, na, 2+rng.Intn(4), shuffle, rng)
		opts := engine.Opts{Workers: 1 + trial%3}
		if trial%3 == 2 {
			opts.EndpointsValuesOnly, opts.ValueNodeCount = true, rng.Intn(nv+na+1)
		}
		fast := Betweenness(g, opts)
		slow := NaiveBetweenness(g, opts)
		for u := range fast {
			if !almostEqual(fast[u], slow[u], 1e-7*(1+math.Abs(slow[u]))) {
				t.Fatalf("trial %d (nv=%d na=%d opts=%+v): node %d brandes=%v naive=%v",
					trial, nv, na, opts, u, fast[u], slow[u])
			}
		}
		h := Harmonic(g, opts)
		a := engine.AcquireArena(g.NumNodes())
		for u := range h {
			if want := harmonicFromSource(g, int32(u), a); h[u] != want {
				t.Fatalf("trial %d: node %d harmonic %v, own BFS %v", trial, u, h[u], want)
			}
		}
		a.Release()
		if !shuffle {
			nodes += g.NumNodes()
			folded += g.NumNodes() - len(twinClasses(g, 0).reps)
		}
	}
	if folded*3 < nodes {
		t.Errorf("only %d of %d nodes share a class with a smaller id: the graphs are not twin-rich enough to test the plan", folded, nodes)
	}
}

// churnGraph is a twin-rich graph for delta tests. The churn component is
// values 0..3 over attributes 50..52 (0, 1, 2 are twins); a clean
// twin-rich component spans values 10..29 and attributes 53..57; every other
// node is isolated padding that keeps the affected share under the plan's
// churn threshold.
func churnGraph() *sliceGraph {
	g := newSliceGraph(60)
	for v := int32(0); v < 3; v++ {
		g.addEdge(v, 50).addEdge(v, 51)
	}
	g.addEdge(3, 51).addEdge(3, 52)
	rng := rand.New(rand.NewSource(5))
	profiles := [][]int32{{53, 54}, {54, 55, 56}, {56, 57}, {53, 57}}
	for v := int32(10); v < 30; v++ {
		for _, a := range profiles[rng.Intn(len(profiles))] {
			g.addEdge(v, a)
		}
	}
	return g
}

func (g *sliceGraph) clone() *sliceGraph {
	c := newSliceGraph(len(g.adj))
	for u, nb := range g.adj {
		c.adj[u] = slices.Clone(nb)
	}
	return c
}

func (g *sliceGraph) removeEdge(u, v int32) *sliceGraph {
	g.adj[u] = slices.DeleteFunc(g.adj[u], func(w int32) bool { return w == v })
	g.adj[v] = slices.DeleteFunc(g.adj[v], func(w int32) bool { return w == u })
	return g
}

// TestTwinChurnDeltaBitIdenticalToFull chains delta rescoring through churn
// that removes a twin-class member, adds one, and creates a new class. At
// every step the rescored entries must be bit-identical to ScoreFull at the
// same worker count; carried entries must be too at one worker (one shard,
// the clean classes summed in the same order) and within float-summation
// tolerance otherwise.
func TestTwinChurnDeltaBitIdenticalToFull(t *testing.T) {
	steps := []func(g *sliceGraph){
		func(g *sliceGraph) { g.removeEdge(2, 50).removeEdge(2, 51) },                         // a member leaves {0,1,2}
		func(g *sliceGraph) { g.addEdge(4, 50).addEdge(4, 51) },                               // 4 joins {0,1}
		func(g *sliceGraph) { g.addEdge(5, 50).addEdge(5, 52).addEdge(6, 50).addEdge(6, 52) }, // new class {5,6}
	}
	for _, workers := range []int{1, 2, 3} {
		opts := engine.Opts{Workers: workers, Normalized: true}
		var bc BetweennessExact
		var hs HarmonicScorer
		prev := churnGraph()
		_, bcCarry := bc.ScoreFull(prev, opts)
		_, hCarry := hs.ScoreFull(prev, opts)
		for step, churn := range steps {
			next := prev.clone()
			churn(next)
			d := &engine.Delta{PrevToNew: make([]int32, len(next.adj)), PrevCarry: bcCarry}
			for u := range next.adj {
				d.PrevToNew[u] = int32(u)
				if !slices.Equal(prev.adj[u], next.adj[u]) {
					d.Dirty = append(d.Dirty, int32(u))
				}
			}
			plan, ok := engine.PlanDelta(next, d)
			if !ok || plan.NumAffected() == 0 {
				t.Fatalf("workers %d step %d: no usable delta plan", workers, step)
			}

			got, gotCarry, ok := bc.ScoreDelta(next, d, opts)
			if !ok {
				t.Fatalf("workers %d step %d: betweenness ScoreDelta bailed", workers, step)
			}
			want, wantCarry := bc.ScoreFull(next, opts)
			for u := range want {
				if plan.PrevOf[u] >= 0 && workers > 1 {
					if !almostEqual(got[u], want[u], 1e-12*(1+math.Abs(want[u]))) {
						t.Fatalf("workers %d step %d: carried node %d delta=%v full=%v", workers, step, u, got[u], want[u])
					}
					continue
				}
				if got[u] != want[u] || gotCarry[u] != wantCarry[u] {
					t.Fatalf("workers %d step %d: node %d delta=(%v,%v) full=(%v,%v)",
						workers, step, u, got[u], gotCarry[u], want[u], wantCarry[u])
				}
			}

			d.PrevCarry = hCarry
			hGot, hGotCarry, ok := hs.ScoreDelta(next, d, opts)
			if !ok {
				t.Fatalf("workers %d step %d: harmonic ScoreDelta bailed", workers, step)
			}
			hWant, _ := hs.ScoreFull(next, opts)
			if !slices.Equal(hGot, hWant) {
				t.Fatalf("workers %d step %d: harmonic delta %v, full %v", workers, step, hGot, hWant)
			}
			prev, bcCarry, hCarry = next, gotCarry, hGotCarry
		}
	}
}

// TestQuotientMatchesNaive holds the quotient kernel to the definitional
// oracle within 1e-12 relative at workers 1–4, on twin-rich graphs with
// isolated nodes and shuffled lists: exact scoring, and explicit weighted
// source lists that hold every member of the largest class and every
// singleton class, under the endpoint split and a partial affected mask.
func TestQuotientMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	multi := 0
	for trial := 0; trial < 40; trial++ {
		g := profileGraph(10+rng.Intn(30), 2+rng.Intn(4), 2+rng.Intn(4), trial%2 == 1, rng)
		n := g.NumNodes()
		var opts engine.Opts
		if trial%3 == 2 {
			opts.EndpointsValuesOnly, opts.ValueNodeCount = true, rng.Intn(n+1)
		}
		q := quotient(g, opts)
		largest := int32(slices.Index(q.weight, slices.Max(q.weight)))
		if q.weight[largest] >= 2 {
			multi++
		}
		var sources []int32
		var weight []float64
		perSource := make([]float64, n) // the oracle's view of sources and mask
		affected := make([]bool, n)
		for u := range int32(n) {
			affected[u] = trial%4 != 3 || rng.Intn(2) == 0
			k := q.classOf[u]
			if k == largest || q.weight[k] == 1 || rng.Intn(4) == 0 {
				w := 0.5 + rng.Float64()
				sources, weight = append(sources, u), append(weight, w)
				if affected[u] {
					perSource[u] = w
				}
			}
		}
		rng.Shuffle(len(sources), func(i, j int) {
			sources[i], sources[j] = sources[j], sources[i]
			weight[i], weight[j] = weight[j], weight[i]
		})
		wantExact := NaiveBetweenness(g, opts)
		wantFrom := naiveFrom(g, perSource, opts)
		for workers := 1; workers <= 4; workers++ {
			opts.Workers = workers
			check := func(what string, got, want []float64) {
				for u := range want {
					if !almostEqual(got[u], want[u], 1e-12*math.Abs(want[u])) {
						t.Fatalf("trial %d workers %d %s: node %d quotient %v, naive %v", trial, workers, what, u, got[u], want[u])
					}
				}
			}
			check("exact", Betweenness(g, opts), wantExact)
			check("sources", accumulate(q, sources, weight, affected, opts), wantFrom)
		}
	}
	if multi < 30 {
		t.Errorf("only %d of 40 graphs have a class of two or more: the sources do not exercise the twin node", multi)
	}
}

// isolatedTable is the benchmark's fresh_exact isolated write: 2 columns of
// 40 cells over 12 values that occur nowhere else, so the table forms a
// component of its own.
func isolatedTable(name string, rng *rand.Rand) *table.Table {
	tb := table.New(name)
	for c := 0; c < 2; c++ {
		col := make([]string, 40)
		for r := range col {
			col[r] = fmt.Sprintf("ISO_%s_%d", name, rng.Intn(12))
		}
		tb.AddColumn(fmt.Sprintf("c%d", c), col...)
	}
	return tb
}

// carriedQuotient plans d against g and checks that the quotient
// carriedTwins derives from d's carry is the one twinClasses builds. It
// reports false when the plan bails (churn past its threshold).
func carriedQuotient(t *testing.T, what string, g Graph, d *engine.Delta) bool {
	t.Helper()
	plan, ok := engine.PlanDelta(g, d)
	if !ok {
		return false
	}
	got := carriedTwins(g, plan, d.PrevCarry)
	if want := twinClasses(g, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: carried quotient differs from twinClasses:\ngot  %+v\nwant %+v", what, got, want)
	}
	return true
}

// TestCarriedTwinsEqualTwinClasses holds the carried quotient to
// twinClasses at every step of two churns: the member-leaves, member-joins
// and new-class steps of TestTwinChurnDeltaBitIdenticalToFull, chained
// through betweenness and harmonic carries, and a random add/remove churn on
// SB seed 1 through bipartite.RebuildDiff, with isolated tables (delta
// scoring) and tables of lake values (mostly past the churn threshold).
func TestCarriedTwinsEqualTwinClasses(t *testing.T) {
	steps := []func(g *sliceGraph){
		func(g *sliceGraph) { g.removeEdge(2, 50).removeEdge(2, 51) },
		func(g *sliceGraph) { g.addEdge(4, 50).addEdge(4, 51) },
		func(g *sliceGraph) { g.addEdge(5, 50).addEdge(5, 52).addEdge(6, 50).addEdge(6, 52) },
	}
	opts := engine.Opts{Workers: 2, Normalized: true}
	var bc BetweennessExact
	var hs HarmonicScorer
	prev := churnGraph()
	_, bcCarry := bc.ScoreFull(prev, opts)
	_, hCarry := hs.ScoreFull(prev, opts)
	for step, churn := range steps {
		next := prev.clone()
		churn(next)
		d := &engine.Delta{PrevToNew: make([]int32, len(next.adj)), PrevCarry: bcCarry}
		for u := range next.adj {
			d.PrevToNew[u] = int32(u)
			if !slices.Equal(prev.adj[u], next.adj[u]) {
				d.Dirty = append(d.Dirty, int32(u))
			}
		}
		if !carriedQuotient(t, fmt.Sprintf("twin churn step %d betweenness", step), next, d) {
			t.Fatalf("twin churn step %d: no delta plan", step)
		}
		_, bcCarry, _ = bc.ScoreDelta(next, d, opts)
		d.PrevCarry = hCarry
		carriedQuotient(t, fmt.Sprintf("twin churn step %d harmonic", step), next, d)
		_, hCarry, _ = hs.ScoreDelta(next, d, opts)
		prev = next
	}

	sb := datagen.NewSB(1)
	l, rng := sb.Lake, rand.New(rand.NewSource(3))
	bopts := bipartite.Options{Workers: 2}
	g := bipartite.FromLake(l, bopts)
	_, carry := bc.ScoreFull(g, opts)
	var added []string
	deltas := 0
	for step := 0; step < 30; step++ {
		switch name := fmt.Sprintf("churn%02d", step); {
		case len(added) > 0 && rng.Intn(3) == 0:
			i := rng.Intn(len(added))
			l.RemoveTable(added[i])
			added = slices.Delete(added, i, i+1)
		case rng.Intn(4) == 0:
			tb := table.New(name)
			for c := 0; c < 2; c++ {
				col := make([]string, 40)
				for r := range col {
					col[r] = g.Values()[rng.Intn(g.NumValues())]
				}
				tb.AddColumn(fmt.Sprintf("c%d", c), col...)
			}
			l.MustAdd(tb)
			added = append(added, name)
		default:
			l.MustAdd(isolatedTable(name, rng))
			added = append(added, name)
		}
		next, diff := bipartite.RebuildDiff(g, l.Attributes(), bopts)
		if diff == nil {
			continue
		}
		if !diff.Full {
			d := &engine.Delta{PrevToNew: diff.PrevToNew, Dirty: diff.Dirty, PrevCarry: carry}
			if carriedQuotient(t, fmt.Sprintf("SB step %d", step), next, d) {
				deltas++
				_, carry, _ = bc.ScoreDelta(next, d, opts)
				g = next
				continue
			}
		}
		_, carry = bc.ScoreFull(next, opts)
		g = next
	}
	if deltas < 10 {
		t.Errorf("only %d of 30 SB churn steps took the delta path", deltas)
	}
}

// minDurations times a and b alternately, runs times each, and returns the
// fastest call of each: the least noisy estimate of their costs on a shared
// machine, taken under the same conditions.
func minDurations(runs int, a, b func()) (time.Duration, time.Duration) {
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for range runs {
		for i, f := range [2]func(){a, b} {
			start := time.Now()
			f()
			best[i] = min(best[i], time.Since(start))
		}
	}
	return best[0], best[1]
}

// listReads records whose neighbor lists a quotient build reads. Hashing a
// node's list, or comparing it with a class representative's, reads it.
type listReads struct {
	Graph
	read []bool
}

func (g *listReads) Neighbors(u int32) []int32 {
	g.read[u] = true
	return g.Graph.Neighbors(u)
}

func (g *listReads) count() int {
	n := 0
	for _, r := range g.read {
		if r {
			n++
		}
	}
	return n
}

// TestCarriedTwinsCostSB prices the carried quotient on the delta warm it
// serves: adding, then removing, one isolated 2×40 table on SB seed 1. It
// must read only the lists of the nodes the delta affects and of the class
// representatives, where twinClasses reads every list, and must cost under
// a third of twinClasses over the same graph.
func TestCarriedTwinsCostSB(t *testing.T) {
	if raceDetector() {
		t.Skip("cost ratios do not hold under the race detector")
	}
	l, rng := datagen.NewSB(1).Lake, rand.New(rand.NewSource(1))
	bopts := bipartite.Options{Workers: 1}
	g := bipartite.FromLake(l, bopts)
	var bc BetweennessExact
	_, carry := bc.ScoreFull(g, engine.Opts{Workers: 1})
	for _, mutate := range []func(){
		func() { l.MustAdd(isolatedTable("iso", rng)) },
		func() { l.RemoveTable("iso") },
	} {
		mutate()
		next, diff := bipartite.RebuildDiff(g, l.Attributes(), bopts)
		d := &engine.Delta{PrevToNew: diff.PrevToNew, Dirty: diff.Dirty, PrevCarry: carry}
		plan, ok := engine.PlanDelta(next, d)
		if diff.Full || !ok {
			t.Fatal("an isolated table did not take the delta path")
		}
		carriedReads := &listReads{Graph: next, read: make([]bool, next.NumNodes())}
		q := carriedTwins(carriedReads, plan, carry)
		fullReads := &listReads{Graph: next, read: make([]bool, next.NumNodes())}
		twinClasses(fullReads, 0)
		affected, stray := 0, 0
		for u, p := range plan.PrevOf {
			if p < 0 {
				affected++
			} else if carriedReads.read[u] && q.reps[q.classOf[u]] != int32(u) {
				stray++
			}
		}
		if stray > 0 {
			t.Errorf("the carried quotient read the lists of %d nodes that the delta left clean and that represent no class", stray)
		}
		t.Logf("carried quotient read %d lists (%d affected nodes, %d classes), twinClasses %d",
			carriedReads.count(), affected, len(q.reps), fullReads.count())
		runtime.GC() // no collection of the lake's garbage runs beside the timings
		carried, full := minDurations(50,
			func() { carriedTwins(next, plan, carry) },
			func() { twinClasses(next, 0) })
		t.Logf("carried quotient %v, twinClasses %v", carried, full)
		if carried*3 >= full {
			t.Errorf("carried quotient %v is not under a third of twinClasses %v", carried, full)
		}
		_, carry, _ = bc.ScoreDelta(next, d, engine.Opts{Workers: 1})
		g = next
	}
}

// raceDetector reports whether the test binary runs under the race
// detector, whose instrumentation distorts cost comparisons.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
