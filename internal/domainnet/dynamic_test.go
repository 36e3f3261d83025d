package domainnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// TestHomographStatusChangesWithLakeUpdates reproduces Definition 1's
// observation: removing the tables that hold a value's only alternative
// meaning turns a homograph into an unambiguous value.
func TestHomographStatusChangesWithLakeUpdates(t *testing.T) {
	l := datagen.Figure1Lake()

	before := New(l, Config{Measure: BetweennessExact, KeepSingletons: true})
	jBefore, ok := before.Score("JAGUAR")
	if !ok {
		t.Fatal("JAGUAR missing before update")
	}
	top := before.TopK(1)
	if top[0].Value != "JAGUAR" {
		t.Fatalf("JAGUAR should rank first before the update, got %s", top[0].Value)
	}

	// Remove the car table T3 and the company table T4: Jaguar now only
	// means the animal.
	if !l.RemoveTable("T3") || !l.RemoveTable("T4") {
		t.Fatal("tables not found")
	}
	after := New(l, Config{Measure: BetweennessExact, KeepSingletons: true})
	jAfter, ok := after.Score("JAGUAR")
	if !ok {
		t.Fatal("JAGUAR missing after update (still in T1 and T2)")
	}
	if jAfter >= jBefore {
		t.Errorf("JAGUAR BC should collapse once its second meaning is gone: %.4f -> %.4f",
			jBefore, jAfter)
	}
	// Puma also loses its company meaning (T4 gone): no homograph remains,
	// so the former homographs may not dominate the ranking anymore.
	pAfter, _ := after.Score("PUMA")
	if pAfter > jBefore {
		t.Errorf("PUMA BC after losing its second meaning = %.4f, suspiciously high", pAfter)
	}
}

// TestIncrementalUpdateTracksScratch reproduces the Definition 1 scenario
// through Detector.Update instead of full re-detection: the incremental
// detector must agree with a cold build at every lake version.
func TestIncrementalUpdateTracksScratch(t *testing.T) {
	cfg := Config{Measure: BetweennessExact, KeepSingletons: true}
	l := datagen.Figure1Lake()
	d := New(l, cfg)
	if d.Version() != l.Version() {
		t.Fatalf("detector version %d != lake version %d", d.Version(), l.Version())
	}
	if top := d.TopK(1); top[0].Value != "JAGUAR" {
		t.Fatalf("JAGUAR should rank first, got %s", top[0].Value)
	}

	if !l.RemoveTable("T3") || !l.RemoveTable("T4") {
		t.Fatal("tables not found")
	}
	inc := d.Update(l)
	if inc == d {
		t.Fatal("Update after removals returned the stale detector")
	}
	if inc.Version() != l.Version() {
		t.Fatalf("updated detector version %d != lake version %d", inc.Version(), l.Version())
	}
	cold := New(l, cfg)
	if !inc.Graph().Equal(cold.Graph()) {
		t.Fatal("incremental graph differs from scratch build")
	}
	if !slices.Equal(inc.Ranking(), cold.Ranking()) {
		t.Fatal("incremental ranking differs from scratch build")
	}
	// The old snapshot is immutable: its ranking still reflects version 4.
	if top := d.TopK(1); top[0].Value != "JAGUAR" {
		t.Errorf("old snapshot mutated by Update: top = %s", top[0].Value)
	}

	// No structural change: Update must hand back the same detector with
	// its caches intact.
	if again := inc.Update(l); again != inc {
		t.Error("no-op Update rebuilt the detector")
	}

	// Removing and re-adding a table verbatim advances the lake version
	// without changing the graph; the no-op Update must still re-stamp, so
	// the version-comparison sync pattern converges.
	tbl := l.Tables()[0]
	if !l.RemoveTable(tbl.Name) {
		t.Fatalf("%s not removed", tbl.Name)
	}
	l.MustAdd(tbl)
	restamped := inc.Update(l)
	// The first Update after the reorder may rebuild (survivor order
	// changed); a second verbatim churn is guaranteed structurally no-op.
	if !l.RemoveTable(tbl.Name) {
		t.Fatalf("%s not removed twice", tbl.Name)
	}
	l.MustAdd(tbl)
	if got := restamped.Update(l); got.Version() != l.Version() {
		t.Errorf("no-op Update left version %d, lake is at %d", got.Version(), l.Version())
	}
}

// TestIncrementalPropertyRandomChurn is the end-to-end equivalence property:
// for a random Add/RemoveTable sequence, Detector.Update (bipartite.RebuildDiff
// underneath) produces graphs and rankings bit-identical to a cold New at
// every step. The vocabulary is small so values keep crossing the singleton
// threshold in both directions.
func TestIncrementalPropertyRandomChurn(t *testing.T) {
	vocab := []string{
		"Jaguar", "Puma", "Panda", "Fox", "Colt", "Aspen", "Dakota",
		"Memphis", "Atlanta", "Berlin", "Tokyo", "Lima",
		"Fiat", "Toyota", "Apple", "Quartz", "Basalt",
	}
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("keep=%v", keep), func(t *testing.T) {
			cfg := Config{Measure: BetweennessExact, KeepSingletons: keep, Workers: 2}
			rng := rand.New(rand.NewSource(11))
			l := lake.New("churn")
			next := 0
			addRandom := func() {
				tb := table.New(fmt.Sprintf("t%03d", next))
				next++
				for c := 0; c < 1+rng.Intn(2); c++ {
					vals := make([]string, 1+rng.Intn(6))
					for r := range vals {
						vals[r] = vocab[rng.Intn(len(vocab))]
					}
					tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
				}
				l.MustAdd(tb)
			}
			addRandom()
			d := New(l, cfg)
			for step := 0; step < 30; step++ {
				if n := l.NumTables(); n > 1 && rng.Intn(3) == 0 {
					l.RemoveTable(l.Tables()[rng.Intn(n)].Name)
				} else {
					addRandom()
				}
				d = d.Update(l)
				cold := New(l, cfg)
				if !d.Graph().Equal(cold.Graph()) {
					t.Fatalf("step %d: incremental graph diverged from cold build", step)
				}
				if !slices.Equal(d.Ranking(), cold.Ranking()) {
					t.Fatalf("step %d: incremental ranking diverged from cold build", step)
				}
			}
		})
	}
}

func TestRemoveTableMissing(t *testing.T) {
	l := datagen.Figure1Lake()
	if l.RemoveTable("NOPE") {
		t.Error("removing a missing table should report false")
	}
	if l.NumTables() != 4 {
		t.Errorf("tables = %d, want 4", l.NumTables())
	}
}
