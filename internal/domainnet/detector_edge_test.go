package domainnet

// Edge-case coverage for the Detector and the Measure enum: oversized TopK,
// empty lakes, absent values, and the measure table row of every measure.

import (
	"context"
	"slices"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/rank"
)

// allMeasures is every defined Measure constant.
var allMeasures = []Measure{
	BetweennessApprox, BetweennessExact, LCC, LCCAttr,
	DegreeBaseline, BetweennessEpsilon, HarmonicBaseline,
}

func TestTopKLargerThanCandidates(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: DegreeBaseline, KeepSingletons: true})
	n := len(d.Ranking())
	if n == 0 {
		t.Fatal("expected a non-empty ranking")
	}
	top := d.TopK(n + 1000)
	if len(top) != n {
		t.Errorf("TopK(n+1000) returned %d entries, want all %d", len(top), n)
	}
	if zero := d.TopK(0); len(zero) != 0 {
		t.Errorf("TopK(0) returned %d entries, want 0", len(zero))
	}
}

func TestEmptyLake(t *testing.T) {
	for _, m := range allMeasures {
		d := New(lake.New("empty"), Config{Measure: m, Seed: 1})
		if got := d.Graph().NumNodes(); got != 0 {
			t.Fatalf("%v: empty lake produced %d nodes", m, got)
		}
		if r := d.Ranking(); len(r) != 0 {
			t.Errorf("%v: empty lake produced ranking of %d", m, len(r))
		}
		if top := d.TopK(10); len(top) != 0 {
			t.Errorf("%v: TopK on empty lake returned %d", m, len(top))
		}
		if _, ok := d.Score("ANYTHING"); ok {
			t.Errorf("%v: Score on empty lake reported ok", m)
		}
	}
}

func TestScoreAbsentValueAllMeasures(t *testing.T) {
	for _, m := range []Measure{DegreeBaseline, LCC} {
		d := New(datagen.Figure1Lake(), Config{Measure: m, KeepSingletons: true})
		if s, ok := d.Score("DEFINITELY-NOT-IN-THE-LAKE"); ok || s != 0 {
			t.Errorf("%v: absent value gave (%v, %v), want (0, false)", m, s, ok)
		}
		// Present values must still resolve.
		if _, ok := d.Score("JAGUAR"); !ok {
			t.Errorf("%v: present value JAGUAR not found", m)
		}
	}
}

func TestMeasureOrderAllVariants(t *testing.T) {
	// LCC family ranks ascending (homographs score low, Hypothesis 3.4);
	// everything else descending — including unknown future measures.
	for _, m := range allMeasures {
		want := rank.Descending
		if m == LCC || m == LCCAttr {
			want = rank.Ascending
		}
		if got := m.order(); got != want {
			t.Errorf("%v.order() = %v, want %v", m, got, want)
		}
	}
	if got := Measure(99).order(); got != rank.Descending {
		t.Errorf("unknown measure order = %v, want Descending", got)
	}
}

// TestEveryMeasureHasRegisteredScorer checks each measure's table row: a
// non-nil scorer, a unique spelling and name, and both resolving back
// through ParseMeasure. TestMeasureRegistered covers the table's extent.
func TestEveryMeasureHasRegisteredScorer(t *testing.T) {
	spellings, names := map[string]bool{}, map[string]bool{}
	for _, m := range allMeasures {
		row := measures[m]
		if row.scorer == nil || row.spelling == "" || row.name == "" {
			t.Errorf("measure %d has an incomplete row %+v", int(m), row)
		}
		if spellings[row.spelling] || names[row.name] {
			t.Errorf("measure %d reuses spelling %q or name %q", int(m), row.spelling, row.name)
		}
		spellings[row.spelling], names[row.name] = true, true
		for _, s := range []string{row.spelling, row.name} {
			if got, ok := ParseMeasure(s); !ok || got != m {
				t.Errorf("ParseMeasure(%q) = %v, %v; want %v", s, got, ok, m)
			}
		}
	}
	// Both lists are wire output (/scorers, CLI errors): pin them exactly.
	wantSpellings := []string{"bc", "bc-eps", "bc-exact", "degree", "harmonic", "lcc", "lcc-attr"}
	if got := MeasureNames(); !slices.Equal(got, wantSpellings) {
		t.Errorf("MeasureNames() = %q, want %q", got, wantSpellings)
	}
	wantNames := []string{
		"betweenness(approx)", "betweenness(epsilon)", "betweenness(exact)",
		"degree", "harmonic", "lcc", "lcc(attr-jaccard)",
	}
	if got := Scorers(); !slices.Equal(got, wantNames) {
		t.Errorf("Scorers() = %q, want %q", got, wantNames)
	}
}

func TestUnknownMeasureFallsBackToDefault(t *testing.T) {
	// An out-of-range Measure (stale config, future constant) must behave
	// like the zero value — approximate betweenness — not panic.
	g := New(datagen.Figure1Lake(), Config{KeepSingletons: true}).Graph()
	def := FromGraph(g, Config{Measure: BetweennessApprox, Seed: 3}).Scores()
	unk := FromGraph(g, Config{Measure: Measure(99), Seed: 3}).Scores()
	for i := range def {
		if def[i] != unk[i] {
			t.Fatalf("node %d: unknown-measure score %v != default %v", i, unk[i], def[i])
		}
	}
}

func TestScoresDispatchMatchesDirectCall(t *testing.T) {
	// Dispatch must be exactly the table's scorer: same graph, same opts,
	// bit-identical output.
	g := New(datagen.Figure1Lake(), Config{KeepSingletons: true}).Graph()
	for _, m := range allMeasures {
		cfg := Config{Measure: m, Seed: 7, Samples: 5, Epsilon: 0.1}
		det := FromGraph(g, cfg)
		direct := measures[m].scorer.Score(g, cfg.engineOpts(context.Background()))
		got := det.Scores()
		if len(got) != len(direct) {
			t.Fatalf("%v: score length %d != %d", m, len(got), len(direct))
		}
		for i := range got {
			if got[i] != direct[i] {
				t.Fatalf("%v: score[%d] = %v != %v", m, i, got[i], direct[i])
			}
		}
	}
}
