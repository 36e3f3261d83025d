package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"domainnet/internal/datagen"
)

// The experiment tests assert the claims of the paper's evaluation at
// reduced scale: method orderings, monotone trends, and the mechanism behind
// each figure. Every row of EXPERIMENTS.md's Quality table is pinned here to
// its measured value (seed 1, small scale), so a change that moves one fails
// tier 1.

// tolerance bounds float pins: EXPERIMENTS.md records four decimals.
const tolerance = 5e-4

// pin fails t unless got is within tolerance of the recorded value want.
func pin(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > tolerance {
		t.Errorf("%s = %.4f, want %.4f (EXPERIMENTS.md Quality table)", what, got, want)
	}
}

func TestFigures56ReproduceSection51(t *testing.T) {
	res := Figures56(1)
	if res.TotalHomographs != 55 {
		t.Fatalf("SB homographs = %d, want 55", res.TotalHomographs)
	}
	// Figure 6: BC captures 38 homographs in the top-55, as in the paper;
	// Figure 5: LCC scatters them, 29 in its top-55.
	if res.BCHits != 38 || res.LCCHits != 29 {
		t.Errorf("top-55 hits: BC %d, LCC %d; want 38 and 29", res.BCHits, res.LCCHits)
	}
	// The misses are the code/abbreviation homographs: no two-letter value
	// should make the BC top-55 above the unambiguous bridges... except GT,
	// which also means a car model and bridges a real community.
	abbrevInTop := 0
	for _, s := range res.TopBC {
		if s.Homograph && len(s.Value) == 2 && s.Value != "GT" {
			abbrevInTop++
		}
	}
	if abbrevInTop > 3 {
		t.Errorf("%d abbreviation homographs in BC top-55; paper reports they all fall out", abbrevInTop)
	}
}

func TestSBComparisonDomainNetBeatsD4(t *testing.T) {
	res := SBComparison(1)
	// Paper §5.1: DomainNet 0.69 vs D4 0.38.
	pin(t, "DomainNet F1", res.DomainNet.F1, 0.6909)
	pin(t, "D4 F1", res.D4.F1, 0.4507)
	// D4 covers only part of the lake's columns (paper: 14/39).
	if res.D4CoveredColumns >= res.TotalColumns {
		t.Errorf("D4 covered all %d columns; expected partial coverage", res.TotalColumns)
	}
}

func testInjection() InjectionConfig {
	cfg := DefaultInjection(ScaleSmall)
	cfg.Runs = 1
	return cfg
}

func TestTable2CardinalityEffect(t *testing.T) {
	cfg := testInjection()
	res, err := Table2(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PctInTop) != 6 {
		t.Fatalf("thresholds = %d", len(res.PctInTop))
	}
	// Paper Table 2: 85% at threshold 0 rising to 97.5% at >= 500.
	pin(t, "lowest-threshold detection", res.PctInTop[0], 0.65)
	pin(t, "highest-threshold detection", res.PctInTop[len(res.PctInTop)-1], 1)
}

func TestTable3MeaningsEffect(t *testing.T) {
	cfg := testInjection()
	res, err := Table3(cfg, []int{2, 5, 8}, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 3: 97.5% at 2 meanings to 100% at 6+.
	for i, p := range res.PctInTop {
		pin(t, fmt.Sprintf("detection at %d meanings", res.Meanings[i]), p, 1)
	}
}

func TestFigure7Shape(t *testing.T) {
	res := Figure7(datagen.SmallTUS(), 400, 1)
	if res.TrueHomographs == 0 {
		t.Fatal("no homographs in TUS ground truth")
	}
	// Small-k precision beats the at-truth operating point (the curve
	// decreases), and the top-10 is dominated by true homographs (paper:
	// all 10).
	if res.PrecisionAt200 < res.AtTruth.Precision {
		t.Errorf("precision@200 (%.3f) below precision@truth (%.3f)", res.PrecisionAt200, res.AtTruth.Precision)
	}
	hits := 0
	for _, s := range res.Top10 {
		if s.Homograph {
			hits++
		}
	}
	if hits < 8 {
		t.Errorf("top-10 homographs = %d, want >= 8 (paper: 10)", hits)
	}
	// Paper: F1 0.622 at k = #homographs, precision@200 0.89.
	pin(t, "at-truth F1", res.AtTruth.F1, 0.5027)
	pin(t, "precision@200", res.PrecisionAt200, 0.7150)
	if res.Best.F1 < res.AtTruth.F1 {
		t.Errorf("best F1 (%.3f) below at-truth F1 (%.3f)", res.Best.F1, res.AtTruth.F1)
	}
	// Recall is monotone along the sampled curve.
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].Recall < res.Curve[i-1].Recall {
			t.Errorf("recall decreased between grid points %d and %d", i-1, i)
		}
	}
}

func TestFigure8PrecisionStabilizes(t *testing.T) {
	res := Figure8(datagen.SmallTUS(), []int{50, 400, 800}, true, 1)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.HasExact {
		t.Fatal("exact reference missing")
	}
	// At 400 samples the approximation already reaches the exact precision
	// (paper: a plateau from ~1000 samples).
	pin(t, "400-sample precision", res.Points[1].PrecisionAtK, 0.5027)
	pin(t, "exact precision", res.ExactPrecision, 0.4847)
	if res.Points[1].PrecisionAtK < res.ExactPrecision {
		t.Errorf("400-sample precision %.4f below exact %.4f", res.Points[1].PrecisionAtK, res.ExactPrecision)
	}
	// The largest sample must track the exact precision closely (paper:
	// plateau at ~0.6 vs exact 0.631).
	gap := res.Points[2].PrecisionAtK - res.ExactPrecision
	if gap < -0.1 || gap > 0.1 {
		t.Errorf("800-sample precision %.3f deviates from exact %.3f by more than 0.1",
			res.Points[2].PrecisionAtK, res.ExactPrecision)
	}
	// More samples never hurt much: the largest sample is within noise of
	// the smallest-or-better.
	if res.Points[2].PrecisionAtK < res.Points[0].PrecisionAtK-0.1 {
		t.Errorf("precision degraded with more samples: %v", res.Points)
	}
}

func TestFigure9LinearScaling(t *testing.T) {
	res := Figure9(0.03, []float64{0.3, 0.55, 0.8, 1.0}, 0.01, 1)
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Edges grow along the sweep.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Edges <= res.Points[i-1].Edges {
			t.Errorf("edge counts not increasing: %v", res.Points)
		}
	}
	// Runtime correlates linearly with edges (paper: linear in m). Timing
	// on a shared single-core host is noisy; require a moderate fit.
	if r2 := res.LinearFitR2(); r2 < 0.6 {
		t.Errorf("linear fit R^2 = %.3f, want >= 0.6", r2)
	}
}

func TestFigure10DomainGrowth(t *testing.T) {
	cfg := datagen.SmallTUS()
	// Density matters: the paper injects 50-200 homographs into 163k values
	// (~0.1%); keep the reduced lake in the same regime or the injected
	// bridges start merging clusters instead of splintering them.
	res, err := Figure10(cfg, []int{4, 12}, []int{2, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineDomains == 0 {
		t.Fatal("D4 found no domains on the clean base")
	}
	byMeanings := map[int]map[int]int{}
	for _, p := range res.Points {
		if byMeanings[p.Meanings] == nil {
			byMeanings[p.Meanings] = map[int]int{}
		}
		byMeanings[p.Meanings][p.Injected] = p.NumDomains
	}
	// More injected homographs -> more discovered domains (Figure 10).
	for m, counts := range byMeanings {
		if counts[12] <= res.BaselineDomains {
			t.Errorf("meanings=%d: 12 injected yields %d domains, baseline %d — no growth",
				m, counts[12], res.BaselineDomains)
		}
		if counts[12] < counts[4] {
			t.Errorf("meanings=%d: domains decreased from %d to %d with more homographs",
				m, counts[4], counts[12])
		}
	}
	// More meanings -> faster growth (the paper's three curves order).
	if byMeanings[6][12] < byMeanings[2][12] {
		t.Errorf("6-meaning injection (%d domains) should outgrow 2-meaning (%d)",
			byMeanings[6][12], byMeanings[2][12])
	}
}

func TestTable1Statistics(t *testing.T) {
	rows := Table1(ScaleSmall)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	sb := rows[0]
	if sb.Dataset != "SB" || sb.Tables != 13 || sb.Attributes != 39 || sb.Homographs != 55 {
		t.Errorf("SB row = %+v", sb)
	}
	if sb.MeanMin != 2 || sb.MeanMax != 2 {
		t.Errorf("SB meanings range = %d-%d, want 2-2", sb.MeanMin, sb.MeanMax)
	}
	tus := rows[1]
	if tus.Homographs == 0 || tus.MeanMax < 3 {
		t.Errorf("TUS row = %+v", tus)
	}
	clean := rows[2]
	if clean.Homographs != 0 {
		t.Errorf("TUS-I base should have 0 homographs, got %d", clean.Homographs)
	}
}

func TestConstructionTimes(t *testing.T) {
	rs := ConstructionTimes(ScaleSmall)
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.Nodes == 0 || r.Edges == 0 {
			t.Errorf("%s: empty graph", r.Dataset)
		}
		if r.BuildMillis < 0 {
			t.Errorf("%s: negative build time", r.Dataset)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	res := Figures56(1)
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("Figures56 render missing header")
	}
	cmp := SBComparison(1)
	if !strings.Contains(cmp.Render(), "DomainNet") {
		t.Error("comparison render missing method name")
	}
	if !strings.Contains(RenderTable1(Table1(ScaleSmall)), "SB") {
		t.Error("table1 render missing dataset")
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" || Scale(9).String() == "" {
		t.Error("scale names wrong")
	}
}

func TestMeasureAblationOrdering(t *testing.T) {
	rows := MeasureAblation(1)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	prec := map[string]float64{}
	for _, r := range rows {
		if r.PrecisionAt55 < 0 || r.PrecisionAt55 > 1 {
			t.Errorf("%s: precision %v out of range", r.Name, r.PrecisionAt55)
		}
		prec[r.Name] = r.PrecisionAt55
	}
	// The paper's core claim: exact BC beats LCC on SB.
	if prec["betweenness (exact)"] <= prec["lcc (exact Eq. 1)"] {
		t.Errorf("BC (%.3f) should beat LCC (%.3f)",
			prec["betweenness (exact)"], prec["lcc (exact Eq. 1)"])
	}
	// And BC beats the trivial degree baseline.
	if prec["betweenness (exact)"] <= prec["degree"] {
		t.Errorf("BC (%.3f) should beat degree (%.3f)",
			prec["betweenness (exact)"], prec["degree"])
	}
	// Top-55 hits of the rows EXPERIMENTS.md records.
	for name, want := range map[string]int{
		"degree":                     32,
		"harmonic (sampled)":         21,
		"betweenness (epsilon 0.01)": 38,
		"lcc (exact Eq. 1)":          29,
	} {
		if got := int(math.Round(prec[name] * 55)); got != want {
			t.Errorf("%s: %d hits in the SB top-55, want %d", name, got, want)
		}
	}
	if !strings.Contains(RenderMeasureAblation(rows), "precision@55") {
		t.Error("ablation render missing header")
	}
}

func TestMeaningDiscoverySummary(t *testing.T) {
	res := MeaningDiscovery(1)
	if res.Homographs != 55 {
		t.Fatalf("homographs = %d, want 55", res.Homographs)
	}
	// The 38 non-abbreviation homographs get exactly 2 meanings.
	if res.ExactMeanings != 38 {
		t.Errorf("exact meaning estimates = %d, want 38", res.ExactMeanings)
	}
	if res.AtLeastTwo < res.ExactMeanings {
		t.Errorf("at-least-two (%d) below exact (%d)", res.AtLeastTwo, res.ExactMeanings)
	}
	if res.Modularity <= 0 {
		t.Errorf("modularity = %v, want > 0", res.Modularity)
	}
	if !strings.Contains(res.Render(), "Meaning discovery") {
		t.Error("render missing header")
	}
}

func TestRenderHelpers(t *testing.T) {
	if got := pct(0.875); got != "87.5%" {
		t.Errorf("pct = %q", got)
	}
	if got := f3(0.1234); got != "0.123" {
		t.Errorf("f3 = %q", got)
	}
	if got := secs(1500); got != "1.50s" {
		t.Errorf("secs = %q", got)
	}
	if got := f1s(2.34); got != "2.3" {
		t.Errorf("f1s = %q", got)
	}
	tbl := renderTable([]string{"a", "bb"}, [][]string{{"1", "2"}})
	if !strings.Contains(tbl, "a") || !strings.Contains(tbl, "--") {
		t.Errorf("renderTable output %q", tbl)
	}
}
