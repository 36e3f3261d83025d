package centrality

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/engine"
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
