package centrality

import (
	"domainnet/internal/engine"

	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// sliceGraph is a minimal adjacency-list Graph for tests.
type sliceGraph struct{ adj [][]int32 }

func (g *sliceGraph) NumNodes() int             { return len(g.adj) }
func (g *sliceGraph) Neighbors(u int32) []int32 { return g.adj[u] }
func (g *sliceGraph) addEdge(u, v int32) *sliceGraph {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return g
}

func newSliceGraph(n int) *sliceGraph { return &sliceGraph{adj: make([][]int32, n)} }

// pathGraph builds 0-1-2-...-n-1.
func pathGraph(n int) *sliceGraph {
	g := newSliceGraph(n)
	for i := 0; i < n-1; i++ {
		g.addEdge(int32(i), int32(i+1))
	}
	return g
}

// randomGraph builds an undirected simple graph with edge probability p.
func randomGraph(n int, p float64, rng *rand.Rand) *sliceGraph {
	g := newSliceGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.addEdge(int32(i), int32(j))
			}
		}
	}
	return g
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBetweennessPathGraph(t *testing.T) {
	// On the path 0-1-2-3-4 the raw (ordered-pair) scores are 0,6,8,6,0.
	bc := Betweenness(pathGraph(5), engine.Opts{Workers: 1})
	want := []float64{0, 6, 8, 6, 0}
	for i, w := range want {
		if !almostEqual(bc[i], w, 1e-9) {
			t.Errorf("node %d: got %v, want %v (all: %v)", i, bc[i], w, bc)
		}
	}
}

func TestBetweennessStarGraph(t *testing.T) {
	// Star with center 0 and 6 leaves: center carries all (n-1)(n-2)
	// ordered leaf pairs; leaves carry none.
	n := 7
	g := newSliceGraph(n)
	for i := 1; i < n; i++ {
		g.addEdge(0, int32(i))
	}
	bc := Betweenness(g, engine.Opts{})
	if want := float64((n - 1) * (n - 2)); !almostEqual(bc[0], want, 1e-9) {
		t.Errorf("center: got %v, want %v", bc[0], want)
	}
	for i := 1; i < n; i++ {
		if bc[i] != 0 {
			t.Errorf("leaf %d: got %v, want 0", i, bc[i])
		}
	}
}

func TestBetweennessNormalized(t *testing.T) {
	g := pathGraph(5)
	raw := Betweenness(g, engine.Opts{})
	norm := Betweenness(g, engine.Opts{Normalized: true})
	scale := float64(4 * 3)
	for i := range raw {
		if !almostEqual(norm[i]*scale, raw[i], 1e-9) {
			t.Errorf("node %d: normalized %v * %v != raw %v", i, norm[i], scale, raw[i])
		}
	}
}

func TestBetweennessDisconnected(t *testing.T) {
	// Two disjoint paths; unreachable pairs contribute nothing and must not
	// produce NaNs.
	g := newSliceGraph(6)
	g.addEdge(0, 1).addEdge(1, 2)
	g.addEdge(3, 4).addEdge(4, 5)
	bc := Betweenness(g, engine.Opts{})
	want := []float64{0, 2, 0, 0, 2, 0}
	for i, w := range want {
		if !almostEqual(bc[i], w, 1e-9) {
			t.Errorf("node %d: got %v, want %v", i, bc[i], w)
		}
	}
}

// TestBrandesMatchesNaive cross-validates the production Brandes
// implementation against the definitional O(n^2)-space oracle on random
// graphs of varying density.
func TestBrandesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		p := 0.05 + rng.Float64()*0.5
		g := randomGraph(n, p, rng)
		fast := Betweenness(g, engine.Opts{Workers: 1 + trial%3})
		slow := NaiveBetweenness(g, engine.Opts{})
		for u := range fast {
			if !almostEqual(fast[u], slow[u], 1e-7*(1+math.Abs(slow[u]))) {
				t.Fatalf("trial %d (n=%d p=%.2f): node %d brandes=%v naive=%v",
					trial, n, p, u, fast[u], slow[u])
			}
		}
	}
}

func TestBrandesMatchesNaiveQuick(t *testing.T) {
	// Property: for any random seed, Brandes equals the oracle.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomGraph(n, 0.3, rng)
		fast := Betweenness(g, engine.Opts{})
		slow := NaiveBetweenness(g, engine.Opts{})
		for u := range fast {
			if !almostEqual(fast[u], slow[u], 1e-7*(1+math.Abs(slow[u]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBetweennessNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(2+rng.Intn(40), 0.2, rng)
		for _, v := range Betweenness(g, engine.Opts{}) {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEndpointsValuesOnlyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		g := randomGraph(n, 0.35, rng)
		opts := engine.Opts{EndpointsValuesOnly: true, ValueNodeCount: n / 2}
		fast := Betweenness(g, opts)
		slow := NaiveBetweenness(g, opts)
		for u := range fast {
			if !almostEqual(fast[u], slow[u], 1e-7*(1+math.Abs(slow[u]))) {
				t.Fatalf("trial %d: node %d restricted brandes=%v naive=%v", trial, u, fast[u], slow[u])
			}
		}
	}
}

func TestApproxFullSampleEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(25, 0.25, rng)
	exact := Betweenness(g, engine.Opts{})
	approx := ApproxBetweenness(g, engine.Opts{Samples: 25, Seed: 5})
	for u := range exact {
		if !almostEqual(exact[u], approx[u], 1e-9) {
			t.Fatalf("node %d: exact %v approx(full) %v", u, exact[u], approx[u])
		}
	}
	// Oversampling must also degenerate to exact.
	over := ApproxBetweenness(g, engine.Opts{Samples: 1000, Seed: 5})
	for u := range exact {
		if !almostEqual(exact[u], over[u], 1e-9) {
			t.Fatalf("node %d: exact %v approx(over) %v", u, exact[u], over[u])
		}
	}
}

// TestApproxDefaultSamples pins the §5.4 default budget, 1% of the nodes but
// at least 100, on both sides of the 10,000-node crossover.
func TestApproxDefaultSamples(t *testing.T) {
	for _, g := range []*sliceGraph{randomGraph(300, 0.03, rand.New(rand.NewSource(4))), pathGraph(12000)} {
		n := g.NumNodes()
		def := ApproxBetweenness(g, engine.Opts{Seed: 8})
		explicit := ApproxBetweenness(g, engine.Opts{Seed: 8, Samples: max(n/100, 100)})
		if !slices.Equal(def, explicit) {
			t.Errorf("n=%d: Samples 0 differs from Samples %d", n, max(n/100, 100))
		}
	}
}

func TestApproxDeterministicUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(60, 0.1, rng)
	a := ApproxBetweenness(g, engine.Opts{Samples: 10, Seed: 42})
	b := ApproxBetweenness(g, engine.Opts{Samples: 10, Seed: 42})
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("node %d: same seed produced %v and %v", u, a[u], b[u])
		}
	}
	c := ApproxBetweenness(g, engine.Opts{Samples: 10, Seed: 43})
	same := true
	for u := range a {
		if a[u] != c[u] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical estimates on a 60-node graph (suspicious)")
	}
}

func TestApproxFindsBridgeNode(t *testing.T) {
	// Two 10-cliques joined through a single bridge node: the bridge has
	// overwhelmingly the highest betweenness, and sampling half the nodes
	// must find it.
	g := newSliceGraph(21)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			g.addEdge(int32(i), int32(j))
		}
	}
	for i := 10; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			g.addEdge(int32(i), int32(j))
		}
	}
	g.addEdge(0, 20).addEdge(20, 10)
	for seed := int64(0); seed < 5; seed++ {
		bc := ApproxBetweenness(g, engine.Opts{Samples: 10, Seed: seed})
		// The bridge path is 0-20-10; those three nodes carry all cross
		// traffic, with 20 exactly on every cross pair. Sampling noise can
		// reorder the three, but the bridge must be in the top 3.
		rank := 0
		for u := range bc {
			if bc[u] > bc[20] {
				rank++
			}
		}
		if rank > 2 {
			t.Errorf("seed %d: bridge node ranked %d (scores %v %v %v)", seed, rank, bc[0], bc[10], bc[20])
		}
	}
}

func TestApproxDegreeBiasedSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(50, 0.15, rng)
	bc := ApproxBetweenness(g, engine.Opts{
		Samples: 20, Seed: 1, DegreeBiased: true,
	})
	if len(bc) != 50 {
		t.Fatalf("got %d scores, want 50", len(bc))
	}
	for u, v := range bc {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("node %d: invalid score %v", u, v)
		}
	}
}

// TestApproxDegreeBiasedFewPositiveDegree asks for more degree-biased sources
// than there are nodes with an edge: every such node becomes a source at the
// requested n/s weight, and the call returns.
func TestApproxDegreeBiasedFewPositiveDegree(t *testing.T) {
	g := newSliceGraph(10)
	g.addEdge(0, 1).addEdge(1, 2)
	done := make(chan []float64, 1)
	go func() { done <- ApproxBetweenness(g, engine.Opts{Samples: 5, Seed: 1, DegreeBiased: true}) }()
	select {
	case bc := <-done:
		exact := Betweenness(g, engine.Opts{})
		for u := range bc {
			if want := exact[u] * 10 / 5; bc[u] != want {
				t.Errorf("node %d: got %v, want %v", u, bc[u], want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("degree-biased sampling did not return")
	}
	if got := sampleByDegree(newSliceGraph(4), 2, rand.New(rand.NewSource(1))); len(got) != 0 {
		t.Errorf("edgeless graph: sources %v, want none", got)
	}
}

func TestDegreeCentrality(t *testing.T) {
	g := pathGraph(4)
	d := Degree(g)
	want := []float64{1, 2, 2, 1}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("node %d: degree %v, want %v", i, d[i], w)
		}
	}
}

func TestBetweennessWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(40, 0.2, rng)
	one := Betweenness(g, engine.Opts{Workers: 1})
	four := Betweenness(g, engine.Opts{Workers: 4})
	for u := range one {
		if !almostEqual(one[u], four[u], 1e-9*(1+one[u])) {
			t.Fatalf("node %d: workers=1 %v workers=4 %v", u, one[u], four[u])
		}
	}
}

func TestBetweennessTinyGraphs(t *testing.T) {
	// Degenerate sizes must not panic or divide by zero.
	for n := 0; n <= 2; n++ {
		g := newSliceGraph(n)
		if n == 2 {
			g.addEdge(0, 1)
		}
		bc := Betweenness(g, engine.Opts{Normalized: true})
		for u, v := range bc {
			if v != 0 {
				t.Errorf("n=%d node %d: got %v, want 0", n, u, v)
			}
		}
	}
}
