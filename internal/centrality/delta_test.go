package centrality

import (
	"math/rand"
	"testing"

	"domainnet/internal/engine"
)

// deltaFixture builds a previous/next graph pair sharing one node universe:
// a 4-node path component {0..3} that the update rewires, an 8-node random
// component {4..11} left untouched, and isolated padding {12..19} keeping
// the affected share under the plan's churn threshold. The returned delta
// uses the identity mapping with Dirty covering the rewired nodes.
func deltaFixture(t *testing.T, carry engine.Carry) (prev, next *sliceGraph, d *engine.Delta) {
	t.Helper()
	const n = 20
	prev = newSliceGraph(n)
	prev.addEdge(0, 1).addEdge(1, 2).addEdge(2, 3)
	rng := rand.New(rand.NewSource(7))
	for u := int32(4); u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if rng.Float64() < 0.4 {
				prev.addEdge(u, v)
			}
		}
	}
	prev.addEdge(4, 5) // ensure the component is connected enough to matter

	next = newSliceGraph(n)
	for u := range prev.adj {
		next.adj[u] = append([]int32(nil), prev.adj[u]...)
	}
	next.addEdge(0, 2) // rewire the path component only

	d = &engine.Delta{
		PrevToNew: make([]int32, n),
		Dirty:     []int32{0, 2},
		PrevCarry: carry,
	}
	for i := range d.PrevToNew {
		d.PrevToNew[i] = int32(i)
	}
	return prev, next, d
}

// TestBetweennessDeltaBitIdenticalToFull: the fixture's rewire changes no
// twin class, so both graphs have the same representative list and shard
// boundaries, and both rescored and carried entries are bit-equal
// to ScoreFull at the same worker count. (When the classes change, carried
// entries are only real-identical — see the package comment.)
func TestBetweennessDeltaBitIdenticalToFull(t *testing.T) {
	for _, normalized := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			opts := engine.Opts{Workers: workers, Normalized: normalized}
			var sc BetweennessExact
			prev, next, d := deltaFixture(t, nil)
			_, d.PrevCarry = sc.ScoreFull(prev, opts)

			got, gotCarry, ok := sc.ScoreDelta(next, d, opts)
			if !ok {
				t.Fatalf("ScoreDelta bailed (normalized=%v workers=%d)", normalized, workers)
			}
			want, wantCarry := sc.ScoreFull(next, opts)
			for u := range want {
				if got[u] != want[u] || gotCarry[u] != wantCarry[u] {
					t.Fatalf("node %d: delta=(%v,%v) full=(%v,%v) (normalized=%v workers=%d)",
						u, got[u], gotCarry[u], want[u], wantCarry[u], normalized, workers)
				}
			}
		}
	}
}

func TestHarmonicDeltaBitIdenticalToFull(t *testing.T) {
	for _, workers := range []int{1, 3} {
		opts := engine.Opts{Workers: workers}
		var sc HarmonicScorer
		prev, next, d := deltaFixture(t, nil)
		_, d.PrevCarry = sc.ScoreFull(prev, opts)

		got, gotCarry, ok := sc.ScoreDelta(next, d, opts)
		if !ok {
			t.Fatalf("ScoreDelta bailed (workers=%d)", workers)
		}
		want, _ := sc.ScoreFull(next, opts)
		for u := range want {
			if got[u] != want[u] || gotCarry[u].Raw != want[u] {
				t.Fatalf("node %d: delta=%v full=%v (workers=%d)", u, got[u], want[u], workers)
			}
		}
	}
}

func TestDeltaEmptyDirtyIsPureCarry(t *testing.T) {
	// An empty dirty set (structure unchanged, ids possibly remapped) must
	// carry every entry verbatim without any BFS.
	var sc BetweennessExact
	opts := engine.Opts{Workers: 2, Normalized: true}
	prev, _, d := deltaFixture(t, nil)
	var prevCarry engine.Carry
	_, prevCarry = sc.ScoreFull(prev, opts)
	d.Dirty = nil
	d.PrevCarry = prevCarry
	got, gotCarry, ok := sc.ScoreDelta(prev, d, opts)
	if !ok {
		t.Fatal("ScoreDelta bailed on an identity delta")
	}
	want, _ := sc.ScoreFull(prev, opts)
	for u := range want {
		if got[u] != want[u] || gotCarry[u] != prevCarry[u] {
			t.Fatalf("node %d: got %v carry %v, want %v carry %v",
				u, got[u], gotCarry[u], want[u], prevCarry[u])
		}
	}
}

func TestScoreDeltaBailsOnUnsupportedOptions(t *testing.T) {
	prev, next, d := deltaFixture(t, nil)
	var bc BetweennessExact
	_, d.PrevCarry = bc.ScoreFull(prev, engine.Opts{})
	if _, _, ok := bc.ScoreDelta(next, d, engine.Opts{EndpointsValuesOnly: true, ValueNodeCount: 12}); ok {
		t.Error("BetweennessExact.ScoreDelta accepted the endpoint ablation")
	}

	var h HarmonicScorer
	_, d.PrevCarry = h.ScoreFull(prev, engine.Opts{})
	if _, _, ok := h.ScoreDelta(next, d, engine.Opts{Samples: 5}); ok {
		t.Error("HarmonicScorer.ScoreDelta accepted the sampled estimator")
	}
	// Samples >= n is the exact path and must not bail.
	if _, _, ok := h.ScoreDelta(next, d, engine.Opts{Samples: next.NumNodes()}); !ok {
		t.Error("HarmonicScorer.ScoreDelta bailed on Samples >= n (exact path)")
	}
}

func TestRegisteredDeltaScorers(t *testing.T) {
	for _, s := range []engine.Scorer{BetweennessExact{}, HarmonicScorer{}} {
		if _, ok := s.(engine.DeltaScorer); !ok {
			t.Errorf("scorer %T does not implement engine.DeltaScorer", s)
		}
	}
	// The sampled/approximate measures deliberately have no delta path.
	for name, s := range map[string]engine.Scorer{
		"ApproxBetweennessScorer":  ApproxBetweennessScorer,
		"EpsilonBetweennessScorer": EpsilonBetweennessScorer,
		"LCCScorer":                LCCScorer,
		"LCCAttrScorer":            LCCAttrScorer,
		"DegreeScorer":             DegreeScorer,
	} {
		if _, ok := s.(engine.DeltaScorer); ok {
			t.Errorf("%s unexpectedly implements engine.DeltaScorer", name)
		}
	}
}
