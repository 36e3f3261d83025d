package domainnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"domainnet/internal/engine"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// deltaCapableMeasures reads from the measure table the measures whose
// scorers implement the incremental path — the set the equivalence property
// below must hold for.
func deltaCapableMeasures(t *testing.T) []Measure {
	t.Helper()
	var out []Measure
	for m := range measures {
		if _, ok := measures[m].scorer.(engine.DeltaScorer); ok {
			out = append(out, Measure(m))
		}
	}
	if len(out) == 0 {
		t.Fatal("no delta-capable measures in the table")
	}
	return out
}

// TestDeltaScoresPropertyRandomChurn is the scoring sibling of
// TestIncrementalPropertyRandomChurn: for a random add/remove/publish
// sequence, a Detector chain maintained through Update — which threads
// prior scores and the rebuild's dirty set into each successor — must
// reproduce a cold build at every step, for every delta-capable measure.
// Harmonic must match bit for bit; betweenness folds per-source
// contributions through shard-grouped partial sums whose grouping shifts
// with the node count, so carried entries are held to a deterministic
// float-summation tolerance instead (see the centrality package comment),
// and its ranking may swap values only within score ties at that
// tolerance. The vocabulary is split into disjoint pools so the graph
// keeps several components and the delta path actually engages
// (single-pool churn stays under the component churn threshold); the test
// asserts the incremental path was taken, not just that it agreed.
func TestDeltaScoresPropertyRandomChurn(t *testing.T) {
	pools := make([][]string, 6)
	for p := range pools {
		for w := 0; w < 6; w++ {
			pools[p] = append(pools[p], fmt.Sprintf("Pool%dWord%d", p, w))
		}
	}
	for _, m := range deltaCapableMeasures(t) {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/keep=%v", m, keep), func(t *testing.T) {
				cfg := Config{Measure: m, KeepSingletons: keep, Workers: 2}
				rng := rand.New(rand.NewSource(29))
				l := lake.New("delta-churn")
				next := 0
				addRandom := func() {
					pool := pools[rng.Intn(len(pools))]
					tb := table.New(fmt.Sprintf("t%03d", next))
					next++
					for c := 0; c < 1+rng.Intn(2); c++ {
						vals := make([]string, 2+rng.Intn(4))
						for r := range vals {
							vals[r] = pool[rng.Intn(len(pool))]
						}
						tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
					}
					l.MustAdd(tb)
				}
				for i := 0; i < 8; i++ {
					addRandom()
				}
				d := New(l, cfg)
				d.Scores() // prime the carry so step 1 can go incremental
				incremental := 0
				for step := 0; step < 25; step++ {
					if n := l.NumTables(); n > 4 && rng.Intn(3) == 0 {
						l.RemoveTable(l.Tables()[rng.Intn(n)].Name)
					} else {
						addRandom()
					}
					d = d.Update(l)
					cold := New(l, cfg)
					if !d.Graph().Equal(cold.Graph()) {
						t.Fatalf("step %d: incremental graph diverged from cold build", step)
					}
					// Summation-grouping tolerance for the shard-sum measures;
					// per-source-output measures must be bit-identical.
					withinTol := func(a, b float64) bool {
						return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
					}
					if m != BetweennessExact {
						if !slices.Equal(d.Scores(), cold.Scores()) {
							t.Fatalf("step %d: incremental scores diverged from cold build", step)
						}
						if !slices.Equal(d.Ranking(), cold.Ranking()) {
							t.Fatalf("step %d: incremental ranking diverged from cold build", step)
						}
					} else {
						got, want := d.Scores(), cold.Scores()
						if len(got) != len(want) {
							t.Fatalf("step %d: score vector length %d vs cold %d", step, len(got), len(want))
						}
						for u := range want {
							if !withinTol(got[u], want[u]) {
								t.Fatalf("step %d node %d: incremental score %v vs cold %v beyond summation tolerance",
									step, u, got[u], want[u])
							}
						}
						gotR, wantR := d.Ranking(), cold.Ranking()
						if len(gotR) != len(wantR) {
							t.Fatalf("step %d: ranking length %d vs cold %d", step, len(gotR), len(wantR))
						}
						coldOf := make(map[string]float64, len(wantR))
						for _, s := range wantR {
							coldOf[s.Value] = s.Score
						}
						for i := range wantR {
							if gotR[i].Value == wantR[i].Value {
								continue
							}
							if !withinTol(coldOf[gotR[i].Value], wantR[i].Score) {
								t.Fatalf("step %d rank %d: %q (cold score %v) displaced %q (cold score %v) beyond tie tolerance",
									step, i, gotR[i].Value, coldOf[gotR[i].Value], wantR[i].Value, wantR[i].Score)
							}
						}
					}
					if inc, _, computed := d.ScorePath(); computed && inc {
						incremental++
					}
				}
				if incremental == 0 {
					t.Fatal("churn sequence never took the incremental scoring path")
				}
			})
		}
	}
}
