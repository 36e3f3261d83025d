package centrality

// Worker-count invariance of the parallelized measures: harmonic is
// bit-identical for any worker count (each source owns its output entry);
// LCC is bit-identical because per-signature sums never cross shards.

import (
	"math/rand"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/engine"
)

func TestHarmonicWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(60, 0.1, rng)
	base := Harmonic(g, engine.Opts{Workers: 1})
	for _, w := range []int{2, 3, 8, 0} {
		got := Harmonic(g, engine.Opts{Workers: w})
		for u := range base {
			if got[u] != base[u] {
				t.Fatalf("workers=%d node %d: %v != %v", w, u, got[u], base[u])
			}
		}
	}
}

func TestApproxHarmonicWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(80, 0.08, rng)
	base := ApproxHarmonic(g, engine.Opts{Samples: 30, Seed: 4, Workers: 1})
	for _, w := range []int{2, 5} {
		got := ApproxHarmonic(g, engine.Opts{Samples: 30, Seed: 4, Workers: w})
		for u := range base {
			if !almostEqual(got[u], base[u], 1e-9*(1+base[u])) {
				t.Fatalf("workers=%d node %d: %v != %v", w, u, got[u], base[u])
			}
		}
	}
}

func TestLCCWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	attrs := randomAttributes(25, 120, 30, rng)
	g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
	base := LCC(g, engine.Opts{Workers: 1})
	baseAttr := LCCAttributeJaccard(g, engine.Opts{Workers: 1})
	for _, w := range []int{2, 4, 0} {
		got := LCC(g, engine.Opts{Workers: w})
		gotAttr := LCCAttributeJaccard(g, engine.Opts{Workers: w})
		for u := range base {
			if got[u] != base[u] {
				t.Fatalf("LCC workers=%d value %d: %v != %v", w, u, got[u], base[u])
			}
			if gotAttr[u] != baseAttr[u] {
				t.Fatalf("LCCAttr workers=%d value %d: %v != %v", w, u, gotAttr[u], baseAttr[u])
			}
		}
	}
}

// TestArenaReuseAcrossMeasures runs the four arena-backed algorithms back to
// back on graphs of different sizes: pooled arenas must not leak state
// between measures or sizes.
func TestArenaReuseAcrossMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	small := randomGraph(15, 0.3, rng)
	big := randomGraph(70, 0.1, rng)
	for i := 0; i < 3; i++ {
		for _, g := range []Graph{small, big, small} {
			exactA := Betweenness(g, engine.Opts{Workers: 1})
			exactB := Betweenness(g, engine.Opts{Workers: 1})
			for u := range exactA {
				if exactA[u] != exactB[u] {
					t.Fatalf("iteration %d: Brandes not reproducible at node %d", i, u)
				}
			}
			Harmonic(g, engine.Opts{})
			ApproxBetweennessEpsilon(g, engine.Opts{Epsilon: 0.2, Seed: 1})
			ApproxBetweenness(g, engine.Opts{Samples: 5, Seed: 2})
		}
	}
}
