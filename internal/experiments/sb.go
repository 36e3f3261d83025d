package experiments

import (
	"fmt"
	"strings"

	"domainnet/internal/d4"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/eval"
	"domainnet/internal/rank"
)

// LabeledScore is a ranked value annotated with its ground-truth label.
type LabeledScore struct {
	Value     string
	Score     float64
	Homograph bool
}

// Figures56Result holds the SB top-55 rankings of Figures 5 (LCC ascending)
// and 6 (BC descending).
type Figures56Result struct {
	TopLCC []LabeledScore // Figure 5
	TopBC  []LabeledScore // Figure 6
	// Homograph hits within each top-55 (paper: LCC scatters homographs —
	// fewer than 25% in the top-55 — while BC captures 38 of 55).
	LCCHits, BCHits int
	// TotalHomographs is the SB ground-truth count (55).
	TotalHomographs int
}

// Figures56 runs LCC and exact BC over the synthetic benchmark and returns
// the two top-55 rankings, reproducing Figures 5 and 6.
func Figures56(seed int64) *Figures56Result {
	sb := datagen.NewSB(seed)
	truth := sb.HomographSet()
	k := len(sb.Homographs)

	res := &Figures56Result{TotalHomographs: k}

	lcc := domainnet.New(sb.Lake, domainnet.Config{Measure: domainnet.LCC})
	res.TopLCC, res.LCCHits = labelTop(lcc.TopK(k), truth)

	bc := domainnet.New(sb.Lake, domainnet.Config{Measure: domainnet.BetweennessExact})
	res.TopBC, res.BCHits = labelTop(bc.TopK(k), truth)
	return res
}

func labelTop(top []rank.Scored, truth map[string]bool) ([]LabeledScore, int) {
	out := make([]LabeledScore, len(top))
	hits := 0
	for i, s := range top {
		h := truth[s.Value]
		if h {
			hits++
		}
		out[i] = LabeledScore{Value: s.Value, Score: s.Score, Homograph: h}
	}
	return out, hits
}

// Render prints the two rankings in the style of Figures 5 and 6.
func (r *Figures56Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — top-%d lowest LCC: %d/%d homographs\n", len(r.TopLCC), r.LCCHits, len(r.TopLCC))
	b.WriteString(renderLabeled(r.TopLCC))
	fmt.Fprintf(&b, "\nFigure 6 — top-%d highest BC: %d/%d homographs\n", len(r.TopBC), r.BCHits, len(r.TopBC))
	b.WriteString(renderLabeled(r.TopBC))
	return b.String()
}

func renderLabeled(ls []LabeledScore) string {
	rows := make([][]string, len(ls))
	for i, s := range ls {
		label := "unambiguous"
		if s.Homograph {
			label = "HOMOGRAPH"
		}
		rows[i] = []string{itoa(i + 1), s.Value, fmt.Sprintf("%.5f", s.Score), label}
	}
	return renderTable([]string{"rank", "value", "score", "type"}, rows)
}

// ComparisonResult compares DomainNet's BC ranking with the D4 baseline on
// SB at k = 55 (§5.1: D4 achieves P=R=F1 of 38%, DomainNet 69%).
type ComparisonResult struct {
	DomainNet eval.Metrics
	D4        eval.Metrics
	// D4Candidates is how many homograph candidates D4 returned in total.
	D4Candidates int
	// D4CoveredColumns / TotalColumns mirror the paper's observation that
	// D4 maps domains onto only 14 of 39 SB columns.
	D4CoveredColumns, TotalColumns int
}

// SBComparison runs both systems on the synthetic benchmark.
func SBComparison(seed int64) *ComparisonResult {
	sb := datagen.NewSB(seed)
	truth := sb.HomographSet()
	k := len(sb.Homographs)

	det := domainnet.New(sb.Lake, domainnet.Config{Measure: domainnet.BetweennessExact})
	dnMetrics := eval.AtK(det.Ranking(), truth, k)

	d4res := d4.Run(sb.Lake.Attributes())
	cands := d4res.RankedCandidates()
	d4Ranking := make([]rank.Scored, len(cands))
	for i, v := range cands {
		d4Ranking[i] = rank.Scored{Value: v, Score: float64(len(cands) - i)}
	}
	d4Metrics := eval.AtK(d4Ranking, truth, k)
	// When D4 returns fewer than k candidates, precision is over the
	// returned set but recall stays over the full truth — recompute recall
	// with the true denominator.
	if len(cands) < k {
		d4Metrics.Recall = float64(hitCount(cands, truth)) / float64(k)
		if d4Metrics.Precision+d4Metrics.Recall > 0 {
			d4Metrics.F1 = 2 * d4Metrics.Precision * d4Metrics.Recall / (d4Metrics.Precision + d4Metrics.Recall)
		}
	}

	return &ComparisonResult{
		DomainNet:        dnMetrics,
		D4:               d4Metrics,
		D4Candidates:     len(cands),
		D4CoveredColumns: d4res.CoveredColumns,
		TotalColumns:     d4res.TotalColumns,
	}
}

func hitCount(cands []string, truth map[string]bool) int {
	n := 0
	for _, v := range cands {
		if truth[v] {
			n++
		}
	}
	return n
}

// Render prints the §5.1 comparison.
func (r *ComparisonResult) Render() string {
	rows := [][]string{
		{"DomainNet (BC)", f3(r.DomainNet.Precision), f3(r.DomainNet.Recall), f3(r.DomainNet.F1)},
		{"D4 baseline", f3(r.D4.Precision), f3(r.D4.Recall), f3(r.D4.F1)},
	}
	s := renderTable([]string{"method", "precision@55", "recall@55", "f1@55"}, rows)
	return s + fmt.Sprintf("D4 covered %d/%d columns, returned %d candidates\n",
		r.D4CoveredColumns, r.TotalColumns, r.D4Candidates)
}
