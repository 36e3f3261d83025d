package domainnet

import (
	"testing"

	"domainnet/internal/datagen"
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

func TestRemoveTableMissing(t *testing.T) {
	l := datagen.Figure1Lake()
	if l.RemoveTable("NOPE") {
		t.Error("removing a missing table should report false")
	}
	if l.NumTables() != 4 {
		t.Errorf("tables = %d, want 4", l.NumTables())
	}
}
