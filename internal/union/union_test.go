package union

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"domainnet/internal/lake"
)

// toyGT builds a ground truth with two union classes: animals (two columns)
// and car makers (one column). JAGUAR spans both classes.
func toyGT() *GroundTruth {
	return &GroundTruth{
		Attrs: lake.NewAttributes([]lake.Spec{
			{ID: "zoo.name", Values: []string{"JAGUAR", "LEMUR", "PANDA"}},
			{ID: "risk.animal", Values: []string{"JAGUAR", "PANDA", "PUMA"}},
			{ID: "cars.make", Values: []string{"FIAT", "JAGUAR", "TOYOTA"}},
		}),
		ClassOf: []int{0, 0, 1},
	}
}

func TestHomographLabels(t *testing.T) {
	gt := toyGT()
	labels := gt.HomographLabels()
	if !labels["JAGUAR"] {
		t.Error("JAGUAR should be a homograph (appears in classes 0 and 1)")
	}
	for _, v := range []string{"PANDA", "LEMUR", "PUMA", "FIAT", "TOYOTA"} {
		if labels[v] {
			t.Errorf("%s should be unambiguous", v)
		}
	}
	if got := gt.Homographs(); !reflect.DeepEqual(got, []string{"JAGUAR"}) {
		t.Errorf("Homographs() = %v", got)
	}
}

func TestMeanings(t *testing.T) {
	gt := toyGT()
	if got := gt.Meanings("JAGUAR"); got != 2 {
		t.Errorf("JAGUAR meanings = %d, want 2", got)
	}
	if got := gt.Meanings("PANDA"); got != 1 {
		t.Errorf("PANDA meanings = %d, want 1 (two columns, one class)", got)
	}
	if got := gt.Meanings("MISSING"); got != 0 {
		t.Errorf("missing value meanings = %d, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	gt := toyGT()
	if err := gt.Validate(); err != nil {
		t.Error(err)
	}
	bad := &GroundTruth{Attrs: gt.Attrs, ClassOf: []int{0}}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch should fail validation")
	}
	neg := &GroundTruth{Attrs: gt.Attrs[:1], ClassOf: []int{-1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative class should fail validation")
	}
}

func TestNumClasses(t *testing.T) {
	if got := toyGT().NumClasses(); got != 2 {
		t.Errorf("NumClasses = %d, want 2", got)
	}
}

func TestRemoveHomographs(t *testing.T) {
	gt := toyGT()
	clean := gt.RemoveHomographs()
	if hs := clean.Homographs(); len(hs) != 0 {
		t.Fatalf("clean lake still has homographs: %v", hs)
	}
	// The rewritten variants preserve cardinalities.
	for i := range gt.Attrs {
		if gt.Attrs[i].Cardinality() != clean.Attrs[i].Cardinality() {
			t.Errorf("attr %d cardinality changed: %d -> %d",
				i, gt.Attrs[i].Cardinality(), clean.Attrs[i].Cardinality())
		}
	}
	// JAGUAR is rewritten per class.
	found := 0
	for i := range clean.Attrs {
		for _, v := range clean.Attrs[i].Values() {
			if v == "JAGUAR#C0" || v == "JAGUAR#C1" {
				found++
			}
		}
	}
	if found != 3 {
		t.Errorf("rewritten JAGUAR occurrences = %d, want 3", found)
	}
	// Original is untouched.
	if !gt.HomographLabels()["JAGUAR"] {
		t.Error("RemoveHomographs mutated its receiver")
	}
}

func TestRemoveHomographsPreservesFreqs(t *testing.T) {
	gt := &GroundTruth{
		Attrs: lake.NewAttributes([]lake.Spec{
			{ID: "a", Values: []string{"B", "X"}, Freqs: []int{3, 1}},
			{ID: "b", Values: []string{"X", "Z"}, Freqs: []int{2, 5}},
		}),
		ClassOf: []int{0, 1},
	}
	clean := gt.RemoveHomographs()
	// X was the homograph; after rewrite attr a holds B(3), X#C0(1) in some
	// sorted order with freqs following their values.
	a := clean.Attrs[0]
	want := map[string]int{"B": 3, "X#C0": 1}
	for i, v := range a.Values() {
		if want[v] != int(a.Freqs()[i]) {
			t.Errorf("attr a: %s freq %d, want %d", v, a.Freqs()[i], want[v])
		}
	}
}

func TestRemoveHomographsIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		gt := randomGT(seed)
		clean := gt.RemoveHomographs()
		if len(clean.Homographs()) != 0 {
			return false
		}
		// A second removal changes nothing. Each removal interns into a
		// symbol table of its own, so compare content, not representation.
		again := clean.RemoveHomographs()
		return reflect.DeepEqual(attrContent(clean.Attrs), attrContent(again.Attrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// randomGT builds a small random ground truth for property tests.
func randomGT(seed int64) *GroundTruth {
	// Deterministic tiny construction: classes 0..2, values shared across
	// attributes pseudo-randomly from the seed.
	n := int(seed%5) + 2
	gt := &GroundTruth{}
	var specs []lake.Spec
	vocab := []string{"AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG"}
	for i := 0; i < n; i++ {
		var vals []string
		for j, v := range vocab {
			if (seed>>(uint(i*3+j)%40))&1 == 1 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			vals = []string{"AAA"}
		}
		sort.Strings(vals)
		specs = append(specs, lake.Spec{ID: string(rune('a' + i)), Values: vals})
		gt.ClassOf = append(gt.ClassOf, i%3)
	}
	gt.Attrs = lake.NewAttributes(specs)
	return gt
}

// attrContent lists each attribute's ID, values and cell counts.
func attrContent(attrs []lake.Attribute) []string {
	var out []string
	for i := range attrs {
		for j, v := range attrs[i].Values() {
			out = append(out, fmt.Sprintf("%s:%s:%d", attrs[i].ID, v, attrs[i].Freqs()[j]))
		}
	}
	return out
}
