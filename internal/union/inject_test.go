package union

import (
	"fmt"
	"strings"
	"testing"

	"domainnet/internal/lake"
)

// injectableGT builds a clean ground truth with nClasses classes, each with
// two columns of card distinct values, all values >= 3 chars and
// unambiguous.
func injectableGT(nClasses, card int) *GroundTruth {
	gt := &GroundTruth{}
	var specs []lake.Spec
	for c := 0; c < nClasses; c++ {
		for k := 0; k < 2; k++ {
			vals := make([]string, card)
			for i := 0; i < card; i++ {
				vals[i] = fmt.Sprintf("C%02dV%04d", c, i)
			}
			specs = append(specs, lake.Spec{ID: fmt.Sprintf("t%d.c%d", c, k), Values: vals})
			gt.ClassOf = append(gt.ClassOf, c)
		}
	}
	gt.Attrs = lake.NewAttributes(specs)
	return gt
}

func TestInjectBasic(t *testing.T) {
	gt := injectableGT(6, 50)
	inj, err := gt.Inject(InjectOptions{Count: 5, Meanings: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Injected) != 5 {
		t.Fatalf("injected = %d, want 5", len(inj.Injected))
	}
	labels := inj.GT.HomographLabels()
	for _, name := range inj.Injected {
		if !labels[name] {
			t.Errorf("%s should be a homograph after injection", name)
		}
		if got := inj.GT.Meanings(name); got != 2 {
			t.Errorf("%s meanings = %d, want 2", name, got)
		}
		if len(inj.Replaced[name]) != 2 {
			t.Errorf("%s replaced %v, want 2 originals", name, inj.Replaced[name])
		}
	}
	// The injected names are the ONLY homographs.
	for v, h := range labels {
		if h && !strings.HasPrefix(v, "INJECTEDHOMOGRAPH") {
			t.Errorf("unexpected homograph %s", v)
		}
	}
	// Original ground truth untouched.
	if len(gt.Homographs()) != 0 {
		t.Error("Inject mutated its receiver")
	}
}

func TestInjectMeaningsSweep(t *testing.T) {
	gt := injectableGT(10, 40)
	for meanings := 2; meanings <= 8; meanings++ {
		inj, err := gt.Inject(InjectOptions{Count: 3, Meanings: meanings, Seed: int64(meanings)})
		if err != nil {
			t.Fatalf("meanings=%d: %v", meanings, err)
		}
		for _, name := range inj.Injected {
			if got := inj.GT.Meanings(name); got != meanings {
				t.Errorf("meanings=%d: %s got %d", meanings, name, got)
			}
		}
	}
}

func TestInjectRespectsMinCardinality(t *testing.T) {
	// Classes 0-2 have small columns (card 10), classes 3-5 large (card 80).
	gt := &GroundTruth{}
	var specs []lake.Spec
	for c := 0; c < 6; c++ {
		card := 10
		if c >= 3 {
			card = 80
		}
		for k := 0; k < 2; k++ {
			vals := make([]string, card)
			for i := range vals {
				vals[i] = fmt.Sprintf("C%02dV%04d", c, i)
			}
			specs = append(specs, lake.Spec{ID: fmt.Sprintf("t%d.c%d", c, k), Values: vals})
			gt.ClassOf = append(gt.ClassOf, c)
		}
	}
	gt.Attrs = lake.NewAttributes(specs)
	inj, err := gt.Inject(InjectOptions{Count: 3, Meanings: 2, MinCardinality: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, originals := range inj.Replaced {
		for _, orig := range originals {
			if !strings.HasPrefix(orig, "C03") && !strings.HasPrefix(orig, "C04") && !strings.HasPrefix(orig, "C05") {
				t.Errorf("%s replaced %s from a small-cardinality class", name, orig)
			}
		}
	}
}

func TestInjectSkipsShortValues(t *testing.T) {
	gt := &GroundTruth{
		Attrs: lake.NewAttributes([]lake.Spec{
			{ID: "a.0", Values: []string{"AB", "XY"}},
			{ID: "a.1", Values: []string{"AB", "XY"}},
			{ID: "b.0", Values: []string{"CD", "ZW"}},
			{ID: "b.1", Values: []string{"CD", "ZW"}},
		}),
		ClassOf: []int{0, 0, 1, 1},
	}
	// All values are 2 characters: nothing is eligible.
	if _, err := gt.Inject(InjectOptions{Count: 1, Meanings: 2, Seed: 1}); err == nil {
		t.Error("injection with only short values should fail")
	}
}

func TestInjectErrors(t *testing.T) {
	gt := injectableGT(3, 20)
	if _, err := gt.Inject(InjectOptions{Count: 0, Meanings: 2}); err == nil {
		t.Error("count 0 should error")
	}
	if _, err := gt.Inject(InjectOptions{Count: 1, Meanings: 1}); err == nil {
		t.Error("meanings 1 should error")
	}
	if _, err := gt.Inject(InjectOptions{Count: 1, Meanings: 5, MinCardinality: 10_000}); err == nil {
		t.Error("unsatisfiable cardinality should error")
	}
	// More homographs than eligible values.
	small := injectableGT(2, 3)
	if _, err := small.Inject(InjectOptions{Count: 100, Meanings: 2, Seed: 1}); err == nil {
		t.Error("exhausting candidates should error")
	}
}

func TestInjectDeterministicUnderSeed(t *testing.T) {
	gt := injectableGT(6, 30)
	a, err := gt.Inject(InjectOptions{Count: 4, Meanings: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gt.Inject(InjectOptions{Count: 4, Meanings: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for name := range a.Replaced {
		if fmt.Sprint(a.Replaced[name]) != fmt.Sprint(b.Replaced[name]) {
			t.Errorf("%s: seeds differ: %v vs %v", name, a.Replaced[name], b.Replaced[name])
		}
	}
}

func TestInjectDistinctOriginals(t *testing.T) {
	gt := injectableGT(8, 25)
	inj, err := gt.Inject(InjectOptions{Count: 10, Meanings: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for name, originals := range inj.Replaced {
		for _, o := range originals {
			if prev, dup := seen[o]; dup {
				t.Errorf("original %s replaced for both %s and %s", o, prev, name)
			}
			seen[o] = name
		}
	}
}
