package centrality

// Cancellation coverage for the arena-backed scorers: a cancelled
// engine.Opts.Ctx must make every traversal measure stop between units of
// work, and — the contract the warm pipeline relies on — a cancelled run's
// partial output must never leak into anyone's cache (the caller discards
// it; these tests assert the early-stop side).

import (
	"context"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/engine"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func allZero(s []float64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestPreCancelledScorersDoNoWork runs every traversal scorer
// with an already-cancelled context: each must return an all-zero vector
// (no source was ever traversed) on a graph where the uncancelled run is
// provably non-zero.
func TestPreCancelledScorersDoNoWork(t *testing.T) {
	g := bipartite.FromLake(datagen.Figure1Lake(), bipartite.Options{KeepSingletons: true})
	for _, tc := range []struct {
		name string
		fn   func(opts engine.Opts) []float64
	}{
		{"betweenness", func(o engine.Opts) []float64 { return Betweenness(g, o) }},
		{"approx-betweenness", func(o engine.Opts) []float64 {
			o.Samples = 5
			return ApproxBetweenness(g, o)
		}},
		{"epsilon-betweenness", func(o engine.Opts) []float64 {
			o.Epsilon = 0.2
			return ApproxBetweennessEpsilon(g, o)
		}},
		{"harmonic", func(o engine.Opts) []float64 { return Harmonic(g, o) }},
		{"approx-harmonic", func(o engine.Opts) []float64 {
			o.Samples = 5
			return ApproxHarmonic(g, o)
		}},
		{"lcc", func(o engine.Opts) []float64 { return LCC(g, o) }},
	} {
		full := tc.fn(engine.Opts{Seed: 1})
		if allZero(full) {
			t.Fatalf("%s: uncancelled run is all-zero; the test graph proves nothing", tc.name)
		}
		got := tc.fn(engine.Opts{Seed: 1, Ctx: cancelledCtx()})
		if !allZero(got) {
			t.Errorf("%s: pre-cancelled run still scored nodes: %v", tc.name, got)
		}
	}
}

// cancellingGraph cancels its context the first time any node's adjacency
// is read, so a traversal sees the cancellation mid-run — after the current
// unit of work, before the next one.
type cancellingGraph struct {
	Graph
	cancel context.CancelFunc
}

func (g *cancellingGraph) Neighbors(u int32) []int32 {
	g.cancel()
	return g.Graph.Neighbors(u)
}

// TestBrandesStopsBetweenSources cancels during the very first BFS: with one
// worker, exactly one source contributes, so the result must differ from the
// full computation — the remaining sources were skipped, not completed.
func TestBrandesStopsBetweenSources(t *testing.T) {
	base := bipartite.FromLake(datagen.Figure1Lake(), bipartite.Options{KeepSingletons: true})
	full := Betweenness(base, engine.Opts{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cg := &cancellingGraph{Graph: base, cancel: cancel}
	partial := Betweenness(cg, engine.Opts{Workers: 1, Ctx: ctx})

	same := true
	for i := range full {
		if full[i] != partial[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("mid-run cancellation produced the full result: sources were not skipped")
	}
}
