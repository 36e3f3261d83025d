package centrality

import (
	"domainnet/internal/engine"

	"math"
	"math/rand"
	"testing"
)

func TestEpsilonEstimatorOnPathGraph(t *testing.T) {
	// Path 0-1-2-3-4: exact betweenness fractions (raw / n(n-1)) are
	// 0, 6/20, 8/20, 6/20, 0.
	g := pathGraph(5)
	est := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.03, Seed: 1})
	want := []float64{0, 0.3, 0.4, 0.3, 0}
	for u, w := range want {
		if math.Abs(est[u]-w) > 0.03 {
			t.Errorf("node %d: est %.3f, exact fraction %.3f (ε=0.03)", u, est[u], w)
		}
	}
}

func TestEpsilonEstimatorMatchesExactOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 10 + rng.Intn(15)
		g := randomGraph(n, 0.25, rng)
		exact := Betweenness(g, engine.Opts{})
		scale := 1.0 / (float64(n) * float64(n-1))
		est := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.05, Seed: int64(trial)})
		for u := range est {
			if diff := math.Abs(est[u] - exact[u]*scale); diff > 0.05+1e-9 {
				t.Errorf("trial %d node %d: |est-exact| = %.4f > ε", trial, u, diff)
			}
		}
	}
}

func TestEpsilonEstimatorRanksBridgeFirst(t *testing.T) {
	// Two cliques joined by one bridge node; the bridge has the largest
	// betweenness fraction by a wide margin.
	g := newSliceGraph(13)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.addEdge(int32(i), int32(j))
		}
	}
	for i := 6; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			g.addEdge(int32(i), int32(j))
		}
	}
	g.addEdge(0, 12).addEdge(12, 6)
	est := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.05, Seed: 7})
	best := 0
	for u := range est {
		if est[u] > est[best] {
			best = u
		}
	}
	if best != 12 && best != 0 && best != 6 {
		t.Errorf("bridge path nodes should rank first, got node %d", best)
	}
}

func TestEpsilonEstimatorDisconnected(t *testing.T) {
	g := newSliceGraph(6)
	g.addEdge(0, 1).addEdge(1, 2)
	g.addEdge(3, 4).addEdge(4, 5)
	est := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.05, Seed: 2})
	for u, v := range est {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("node %d: invalid estimate %v", u, v)
		}
	}
	// Middle nodes of each path carry all the flow; endpoints none.
	if est[1] == 0 && est[4] == 0 {
		t.Error("bridge nodes got zero estimates — sampling broken")
	}
	if est[0] != 0 || est[2] != 0 {
		t.Errorf("leaf nodes should estimate 0, got %v / %v", est[0], est[2])
	}
}

func TestEpsilonEstimatorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(20, 0.2, rng)
	a := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.1, Seed: 9})
	b := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.1, Seed: 9})
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("node %d: nondeterministic under fixed seed", u)
		}
	}
}

func TestEpsilonEstimatorTinyGraphs(t *testing.T) {
	for n := 0; n <= 2; n++ {
		g := newSliceGraph(n)
		if n == 2 {
			g.addEdge(0, 1)
		}
		est := ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.1, Seed: 1})
		for u, v := range est {
			if v != 0 {
				t.Errorf("n=%d node %d: got %v, want 0", n, u, v)
			}
		}
	}
}

func TestEstimateVertexDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Path of 10 nodes: true vertex diameter 10; the 2-BFS bound is between
	// the truth and twice the truth.
	vd := estimateVertexDiameter(pathGraph(10), rng, engine.AcquireArena(10))
	if vd < 10 || vd > 20 {
		t.Errorf("path-10 vertex diameter estimate = %d, want in [10,20]", vd)
	}
	// Star: diameter 2 edges -> 3 nodes.
	star := newSliceGraph(6)
	for i := 1; i < 6; i++ {
		star.addEdge(0, int32(i))
	}
	vd = estimateVertexDiameter(star, rng, engine.AcquireArena(6))
	if vd < 3 || vd > 6 {
		t.Errorf("star vertex diameter estimate = %d, want in [3,6]", vd)
	}
}

func TestHarmonicPathGraph(t *testing.T) {
	// Path 0-1-2: harmonic(1) = 1 + 1 = 2; harmonic(0) = 1 + 1/2 = 1.5.
	g := pathGraph(3)
	h := Harmonic(g, engine.Opts{})
	if math.Abs(h[1]-2) > 1e-12 || math.Abs(h[0]-1.5) > 1e-12 {
		t.Errorf("harmonic = %v, want [1.5 2 1.5]", h)
	}
}

func TestHarmonicDisconnected(t *testing.T) {
	g := newSliceGraph(4)
	g.addEdge(0, 1)
	h := Harmonic(g, engine.Opts{})
	if h[0] != 1 || h[2] != 0 {
		t.Errorf("harmonic = %v, want [1 1 0 0]", h)
	}
}

func TestApproxHarmonicFullSampleEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(20, 0.2, rng)
	exact := Harmonic(g, engine.Opts{})
	approx := ApproxHarmonic(g, engine.Opts{Samples: 20, Seed: 1})
	for u := range exact {
		if math.Abs(exact[u]-approx[u]) > 1e-9 {
			t.Fatalf("node %d: %v vs %v", u, exact[u], approx[u])
		}
	}
}

func TestApproxHarmonicUnbiasedOnVertexTransitive(t *testing.T) {
	// On a cycle every node has identical harmonic centrality; a sampled
	// estimate must be close for every node.
	n := 30
	g := newSliceGraph(n)
	for i := 0; i < n; i++ {
		g.addEdge(int32(i), int32((i+1)%n))
	}
	exact := Harmonic(g, engine.Opts{})
	approx := ApproxHarmonic(g, engine.Opts{Samples: 25, Seed: 3})
	for u := range exact {
		if math.Abs(approx[u]-exact[u]) > 0.35*exact[u] {
			t.Errorf("node %d: approx %v vs exact %v", u, approx[u], exact[u])
		}
	}
}
