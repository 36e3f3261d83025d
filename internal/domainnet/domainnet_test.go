package domainnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/engine"
	"domainnet/internal/eval"
)

// TestExample36BetweennessScores reproduces the paper's Example 3.6 on the
// Figure 1 lake: normalized BC of Jaguar ≈ 0.025, Puma ≈ 0.003, and
// Toyota/Panda ≈ 0.002, with Jaguar and Puma (the homographs) on top.
func TestExample36BetweennessScores(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{
		Measure:        BetweennessExact,
		KeepSingletons: true,
	})
	want := map[string]float64{
		"JAGUAR": 0.025,
		"PUMA":   0.003,
		"TOYOTA": 0.002,
		"PANDA":  0.002,
	}
	got := map[string]float64{}
	for v, w := range want {
		s, ok := d.Score(v)
		if !ok {
			t.Fatalf("%s missing from graph", v)
		}
		got[v] = s
		if math.Abs(s-w) > 0.005 {
			t.Errorf("%s: BC = %.4f, paper reports %.3f", v, s, w)
		}
	}
	if !(got["JAGUAR"] > got["PUMA"] && got["PUMA"] > got["TOYOTA"]) {
		t.Errorf("ordering violated: %v", got)
	}
}

// TestExample36LCCOrdering checks the LCC ordering of Example 3.6: the
// homographs Jaguar and Puma score lower than the unambiguous repeated
// values, with Jaguar lowest.
func TestExample36LCCOrdering(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: LCC, KeepSingletons: true})
	score := func(v string) float64 {
		s, ok := d.Score(v)
		if !ok {
			t.Fatalf("%s missing", v)
		}
		return s
	}
	jaguar, puma := score("JAGUAR"), score("PUMA")
	toyota, panda := score("TOYOTA"), score("PANDA")
	if !(jaguar < puma && puma < toyota && puma < panda) {
		t.Errorf("LCC ordering violated: jaguar=%.3f puma=%.3f toyota=%.3f panda=%.3f",
			jaguar, puma, toyota, panda)
	}
	if math.Abs(toyota-panda) > 0.01 {
		t.Errorf("Toyota and Panda should score nearly equal: %.3f vs %.3f", toyota, panda)
	}
}

// TestSBExactBetweennessAnchor pins the paper's Figure 6 run: exact
// betweenness on SB seed 1 puts BUFFALO and JACKSON on top with these
// normalized scores and finds 38 of the 55 planted homographs in its top 55.
func TestSBExactBetweennessAnchor(t *testing.T) {
	sb := datagen.NewSB(1)
	top := New(sb.Lake, Config{Measure: BetweennessExact}).TopK(55)
	if got := fmt.Sprintf("%s %.6f %s %.6f", top[0].Value, top[0].Score, top[1].Value, top[1].Score); got != "BUFFALO 0.167244 JACKSON 0.127816" {
		t.Errorf("top 2 = %s, want BUFFALO 0.167244 JACKSON 0.127816", got)
	}
	if hits := eval.HitsAtK(top, sb.HomographSet(), 55); hits != 38 {
		t.Errorf("%d planted homographs in the top 55, want 38", hits)
	}
}

func TestFigure1TopCandidates(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: BetweennessExact, KeepSingletons: true})
	top := d.TopK(2)
	got := map[string]bool{top[0].Value: true, top[1].Value: true}
	if !got["JAGUAR"] || !got["PUMA"] {
		t.Errorf("top-2 = %v, want the two homographs Jaguar and Puma", top)
	}
}

func TestMeasuresProduceRankings(t *testing.T) {
	l := datagen.Figure1Lake()
	for _, m := range []Measure{BetweennessApprox, BetweennessExact, LCC, LCCAttr, DegreeBaseline, BetweennessEpsilon, HarmonicBaseline} {
		d := New(l, Config{Measure: m, Samples: 10, KeepSingletons: true})
		r := d.Ranking()
		if len(r) != d.Graph().NumValues() {
			t.Errorf("%v: ranking size %d, want %d", m, len(r), d.Graph().NumValues())
		}
	}
}

func TestScoresMemoized(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: BetweennessExact})
	s1 := d.Scores()
	s2 := d.Scores()
	if &s1[0] != &s2[0] {
		t.Error("Scores should be computed once and cached")
	}
}

func TestApproxDefaultsAndDeterminism(t *testing.T) {
	sb := datagen.NewSB(1)
	d1 := New(sb.Lake, Config{Seed: 5, Samples: 50})
	d2 := New(sb.Lake, Config{Seed: 5, Samples: 50})
	r1, r2 := d1.TopK(20), d2.TopK(20)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rank %d differs under same seed: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestFromGraph(t *testing.T) {
	g := bipartite.FromLake(datagen.Figure1Lake(), bipartite.Options{KeepSingletons: true})
	d := FromGraph(g, Config{Measure: DegreeBaseline})
	if d.Graph() != g {
		t.Error("FromGraph should wrap the provided graph")
	}
	if len(d.Ranking()) != g.NumValues() {
		t.Error("ranking over provided graph failed")
	}
}

func TestScoreMissingValue(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: DegreeBaseline})
	if _, ok := d.Score("NO-SUCH-VALUE"); ok {
		t.Error("missing value should report ok=false")
	}
}

func TestMeasureString(t *testing.T) {
	names := map[Measure]string{
		BetweennessApprox:  "betweenness(approx)",
		BetweennessExact:   "betweenness(exact)",
		LCC:                "lcc",
		LCCAttr:            "lcc(attr-jaccard)",
		DegreeBaseline:     "degree",
		BetweennessEpsilon: "betweenness(epsilon)",
		HarmonicBaseline:   "harmonic",
		Measure(99):        "Measure(99)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d: got %q, want %q", int(m), got, want)
		}
	}
}

// TestMeasureRegistered checks that the measure table holds exactly one row
// per built-in measure and nothing else: an out-of-range Measure has no row
// of its own and resolves to the default's, and unknown spellings parse to
// nothing.
func TestMeasureRegistered(t *testing.T) {
	if len(measures) != len(allMeasures) {
		t.Fatalf("measure table has %d rows, want %d", len(measures), len(allMeasures))
	}
	for i, m := range allMeasures {
		if int(m) != i {
			t.Errorf("allMeasures[%d] = %d: the table index and constant disagree", i, int(m))
		}
	}
	if got := Measure(99).String(); got != "Measure(99)" {
		t.Errorf("Measure(99).String() = %q, want Measure(99)", got)
	}
	if Measure(99).info() != BetweennessApprox.info() || Measure(-1).info() != BetweennessApprox.info() {
		t.Error("an out-of-range Measure does not resolve to the default row")
	}
	if _, ok := ParseMeasure("pagerank"); ok {
		t.Error("ParseMeasure accepted an unknown spelling")
	}
}

func TestEpsilonMeasureFindsFigure1Homographs(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{
		Measure:        BetweennessEpsilon,
		Epsilon:        0.02,
		Seed:           3,
		KeepSingletons: true,
	})
	top := d.TopK(2)
	got := map[string]bool{top[0].Value: true, top[1].Value: true}
	if !got["JAGUAR"] || !got["PUMA"] {
		t.Errorf("epsilon-measure top-2 = %v, want Jaguar and Puma", top)
	}
}

// TestDeltaCapableMeasures pins the measures whose scorers implement the
// incremental path: serve's TestDeltaScoresPropertyRandomChurn warms exactly
// these, so a new delta scorer must join that property.
func TestDeltaCapableMeasures(t *testing.T) {
	var got []Measure
	for m := range measures {
		if _, ok := measures[m].scorer.(engine.DeltaScorer); ok {
			got = append(got, Measure(m))
		}
	}
	if want := []Measure{BetweennessExact, HarmonicBaseline}; !slices.Equal(got, want) {
		t.Errorf("delta-capable measures = %v, want %v", got, want)
	}
}
