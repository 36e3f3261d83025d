package datagen

import (
	"strings"
	"testing"

	"domainnet/internal/bipartite"
)

func TestTUSSmallShape(t *testing.T) {
	cfg := SmallTUS()
	gt := TUS(cfg)
	if err := gt.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(gt.Attrs); got < cfg.Attrs {
		t.Errorf("attrs = %d, want >= %d", got, cfg.Attrs)
	}
	if got := gt.NumClasses(); got != cfg.Domains {
		t.Errorf("classes = %d, want %d", got, cfg.Domains)
	}
	// Every attribute has at least 3 values, with ascending distinct IDs.
	for i := range gt.Attrs {
		a := &gt.Attrs[i]
		if a.Cardinality() < 3 {
			t.Errorf("attr %s cardinality = %d, want >= 3", a.ID, a.Cardinality())
		}
		for j := 1; j < len(a.IDs()); j++ {
			if a.IDs()[j-1] >= a.IDs()[j] {
				t.Fatalf("attr %s value IDs not ascending distinct at %d", a.ID, j)
			}
		}
		if a.Cells() < a.Cardinality() {
			t.Fatalf("attr %s has fewer cells than values", a.ID)
		}
	}
}

func TestTUSPlantedHomographsAreHomographs(t *testing.T) {
	gt := TUS(SmallTUS())
	labels := gt.HomographLabels()
	planted := 0
	for v, h := range labels {
		if strings.HasPrefix(v, "NATHOM") {
			planted++
			if !h {
				t.Errorf("planted %s not labeled homograph", v)
			}
		}
	}
	if planted != SmallTUS().Homographs {
		t.Errorf("planted count = %d, want %d", planted, SmallTUS().Homographs)
	}
}

func TestTUSNumericHomographsExist(t *testing.T) {
	// Numeric domains overlap on small integers, producing the natural
	// numeric homographs the paper highlights in §5.3.
	gt := TUS(SmallTUS())
	labels := gt.HomographLabels()
	numericHoms := 0
	for v, h := range labels {
		if h && !strings.HasPrefix(v, "NATHOM") {
			numericHoms++
			_ = v
		}
	}
	if numericHoms == 0 {
		t.Error("expected numeric overlap homographs, found none")
	}
}

func TestTUSCleanBaseHasNoHomographs(t *testing.T) {
	cfg := SmallTUS()
	cfg.Homographs = 0
	clean := TUS(cfg).RemoveHomographs()
	if hs := clean.Homographs(); len(hs) != 0 {
		t.Errorf("clean TUS-I base has %d homographs: %v", len(hs), hs[:min(5, len(hs))])
	}
}

func TestTUSDeterministic(t *testing.T) {
	a := TUS(SmallTUS())
	b := TUS(SmallTUS())
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatal("nondeterministic attr count")
	}
	for i := range a.Attrs {
		if a.Attrs[i].ID != b.Attrs[i].ID || a.Attrs[i].Cardinality() != b.Attrs[i].Cardinality() {
			t.Fatalf("attr %d differs between runs", i)
		}
	}
}

func TestTUSMeaningsDistribution(t *testing.T) {
	gt := TUS(SmallTUS())
	meanings := gt.MeaningCounts()
	twos, more := 0, 0
	maxM := 0
	for v, m := range meanings {
		if !strings.HasPrefix(v, "NATHOM") {
			continue
		}
		if m == 2 {
			twos++
		} else if m > 2 {
			more++
		}
		if m > maxM {
			maxM = m
		}
	}
	if twos == 0 || more == 0 {
		t.Errorf("meanings distribution degenerate: twos=%d more=%d", twos, more)
	}
	if maxM > SmallTUS().MaxMeanings {
		t.Errorf("max meanings %d exceeds cap %d", maxM, SmallTUS().MaxMeanings)
	}
}

func TestTUSSingletonRemovalModest(t *testing.T) {
	gt := TUS(SmallTUS())
	all := bipartite.FromAttributes(gt.Attrs, bipartite.Options{KeepSingletons: true})
	filtered := bipartite.FromAttributes(gt.Attrs, bipartite.Options{})
	removed := float64(all.NumValues()-filtered.NumValues()) / float64(all.NumValues())
	// Paper: ~3% of TUS nodes are removed. Generator should stay well under
	// the SB-like 30%.
	if removed > 0.25 {
		t.Errorf("singleton removal fraction = %.2f, want modest (paper ~0.03)", removed)
	}
}

func TestNYCScale(t *testing.T) {
	attrs := NYC(NYCConfig{Scale: 0.01, Seed: 1})
	if len(attrs) < 30 {
		t.Fatalf("attrs = %d", len(attrs))
	}
	g := bipartite.FromAttributes(attrs, bipartite.Options{})
	if g.NumEdges() == 0 || g.NumValues() == 0 {
		t.Fatal("empty NYC graph")
	}
	// Edges per attribute should be in the several-hundred range on
	// average, matching 2.3M edges / 3496 attrs ≈ 660.
	avg := float64(g.NumEdges()) / float64(len(attrs))
	if avg < 200 || avg > 1500 {
		t.Errorf("avg edges per attribute = %.0f, want a few hundred", avg)
	}
	// Shared pool values connect attributes: some value must have degree > 1.
	maxDeg := 0
	for u := int32(0); int(u) < g.NumValues(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 2 {
		t.Error("no value spans multiple attributes")
	}
}

func TestNYCDeterministic(t *testing.T) {
	a := NYC(NYCConfig{Scale: 0.005, Seed: 3})
	b := NYC(NYCConfig{Scale: 0.005, Seed: 3})
	if len(a) != len(b) {
		t.Fatal("nondeterministic attr count")
	}
	for i := range a {
		if a[i].Cardinality() != b[i].Cardinality() {
			t.Fatalf("attr %d cardinality differs", i)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
