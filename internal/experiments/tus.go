package experiments

import (
	"fmt"
	"sort"
	"strings"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/eval"
	"domainnet/internal/rank"
	"domainnet/internal/union"
)

// Figure7Result holds the top-k precision/recall/F1 analysis over the TUS
// benchmark (§5.3) plus the qualitative top-10 list.
type Figure7Result struct {
	// Curve samples metrics at a grid of k values (the full curve is
	// len(ranking) points; the grid keeps rendering readable).
	Curve []eval.Metrics
	// AtTruth is the operating point k = number of true homographs
	// (paper: P=R=F1=0.622).
	AtTruth eval.Metrics
	// Best is the F1-optimal point (paper: k=29,633, F1=0.655).
	Best eval.Metrics
	// PrecisionAt200 is the small-k precision (paper: 0.89).
	PrecisionAt200 float64
	// Top10 is the qualitative list of §5.3 — the ten highest-BC values
	// with ground-truth labels (paper: all ten are homographs).
	Top10 []LabeledScore
	// TrueHomographs is the ground-truth homograph count.
	TrueHomographs int
	// Values is the number of candidate values ranked.
	Values int
}

// TUSConfigFor returns the TUS generator configuration for a scale.
func TUSConfigFor(scale Scale) datagen.TUSConfig {
	switch scale {
	case ScaleSmall:
		return datagen.SmallTUS()
	case ScaleFull:
		return datagen.FullTUS()
	default:
		return datagen.MediumTUS()
	}
}

// Figure7 ranks all TUS values by approximate BC and evaluates the full
// precision-recall trade-off against the Definition 2 ground truth.
func Figure7(cfg datagen.TUSConfig, samples int, seed int64) *Figure7Result {
	gt := datagen.TUS(cfg)
	return figure7On(gt, samples, seed)
}

func figure7On(gt *union.GroundTruth, samples int, seed int64) *Figure7Result {
	g := bipartite.FromAttributes(gt.Attrs, bipartite.Options{})
	det := domainnet.FromGraph(g, domainnet.Config{
		Measure: domainnet.BetweennessApprox,
		Samples: samples,
		Seed:    seed,
	})
	ranking := det.Ranking()

	// Ground truth restricted to values that survived pre-processing: a
	// dropped singleton cannot be ranked, and the paper's truth counts are
	// over the graph's candidate values.
	truth := map[string]bool{}
	trueCount := 0
	for v, h := range gt.HomographLabels() {
		if _, ok := g.ValueNode(v); !ok {
			continue
		}
		truth[v] = h
		if h {
			trueCount++
		}
	}

	curve := eval.Curve(ranking, truth)
	res := &Figure7Result{
		TrueHomographs: trueCount,
		Values:         len(ranking),
		Best:           eval.BestF1(curve),
	}
	if trueCount > 0 && trueCount <= len(curve) {
		res.AtTruth = curve[trueCount-1]
	}
	if len(curve) >= 200 {
		res.PrecisionAt200 = curve[199].Precision
	} else if len(curve) > 0 {
		res.PrecisionAt200 = curve[len(curve)-1].Precision
	}
	// Sample the curve on a readable grid.
	grid := curveGrid(len(curve))
	for _, k := range grid {
		res.Curve = append(res.Curve, curve[k-1])
	}
	top10, _ := labelTop(rank.TopK(ranking, 10), truth)
	res.Top10 = top10
	return res
}

func curveGrid(n int) []int {
	if n == 0 {
		return nil
	}
	var grid []int
	for _, f := range []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0} {
		k := int(f * float64(n))
		if k < 1 {
			k = 1
		}
		grid = append(grid, k)
	}
	sort.Ints(grid)
	out := grid[:0]
	for i, k := range grid {
		if i == 0 || k != grid[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// Render prints the Figure 7 curve, the §5.3 operating points and the
// qualitative top-10 list.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — TUS top-k evaluation (%d candidate values, %d true homographs)\n",
		r.Values, r.TrueHomographs)
	rows := make([][]string, len(r.Curve))
	for i, m := range r.Curve {
		rows[i] = []string{itoa(m.K), f3(m.Precision), f3(m.Recall), f3(m.F1)}
	}
	b.WriteString(renderTable([]string{"k", "precision", "recall", "f1"}, rows))
	fmt.Fprintf(&b, "precision@200 = %.3f (paper: 0.89)\n", r.PrecisionAt200)
	fmt.Fprintf(&b, "at k = #homographs: P=R=F1 = %.3f (paper: 0.622)\n", r.AtTruth.F1)
	fmt.Fprintf(&b, "best F1 = %.3f at k=%d (paper: 0.655 at k=29,633)\n\n", r.Best.F1, r.Best.K)
	b.WriteString("§5.3 top-10 by BC:\n")
	b.WriteString(renderLabeled(r.Top10))
	return b.String()
}

// Table1Row is one row of the paper's Table 1 dataset statistics.
type Table1Row struct {
	Dataset    string
	Tables     int
	Attributes int
	Values     int
	Homographs int
	CardMin    int
	CardMax    int
	MeanMin    int
	MeanMax    int
}

// Table1 computes dataset statistics for the four benchmark lakes at the
// given scale.
func Table1(scale Scale) []Table1Row {
	var rows []Table1Row

	sb := datagen.NewSB(1)
	rows = append(rows, table1Row("SB", sb.Lake.NumTables(), sb.GT, sb.HomographSet()))

	tusCfg := TUSConfigFor(scale)
	gt := datagen.TUS(tusCfg)
	labels := gt.HomographLabels()
	homs := map[string]bool{}
	for v, h := range labels {
		if h {
			homs[v] = true
		}
	}
	rows = append(rows, table1Row("TUS", tusCfg.Tables, gt, homs))

	cleanCfg := tusCfg
	cleanCfg.Homographs = 0
	clean := datagen.TUS(cleanCfg).RemoveHomographs()
	rows = append(rows, table1Row("TUS-I (base)", cleanCfg.Tables, clean, nil))

	nycScale := 0.02
	if scale == ScaleFull {
		nycScale = 1.0
	} else if scale == ScaleMedium {
		nycScale = 0.1
	}
	nyc := NYCGroundTruth(nycScale)
	rows = append(rows, table1Row("NYC-EDU", int(float64(201)*nycScale)+1, nyc, nil))
	return rows
}

// NYCGroundTruth wraps the NYC generator output in a trivial ground truth
// (every attribute its own class; union structure is irrelevant for the
// scalability dataset).
func NYCGroundTruth(scale float64) *union.GroundTruth {
	attrs := datagen.NYC(datagen.NYCConfig{Scale: scale, Seed: 1})
	classes := make([]int, len(attrs))
	for i := range classes {
		classes[i] = i
	}
	return &union.GroundTruth{Attrs: attrs, ClassOf: classes}
}

func table1Row(name string, tables int, gt *union.GroundTruth, homs map[string]bool) Table1Row {
	row := Table1Row{Dataset: name, Tables: tables, Attributes: len(gt.Attrs)}
	distinct := map[string]struct{}{}
	for i := range gt.Attrs {
		for _, v := range gt.Attrs[i].Values() {
			distinct[v] = struct{}{}
		}
	}
	row.Values = len(distinct)
	if homs == nil {
		row.Homographs = len(gt.Homographs())
		homs = map[string]bool{}
		for _, h := range gt.Homographs() {
			homs[h] = true
		}
	} else {
		row.Homographs = len(homs)
	}
	if row.Homographs > 0 {
		// Cardinality range of homographs (|N(v)| in the bipartite graph)
		// and meanings range.
		g := bipartite.FromAttributes(gt.Attrs, bipartite.Options{})
		meanings := gt.MeaningCounts()
		row.CardMin, row.MeanMin = 1<<30, 1<<30
		for h := range homs {
			u, ok := g.ValueNode(h)
			if !ok {
				continue
			}
			c := g.Cardinality(u)
			if c < row.CardMin {
				row.CardMin = c
			}
			if c > row.CardMax {
				row.CardMax = c
			}
			m := meanings[h]
			if m < row.MeanMin {
				row.MeanMin = m
			}
			if m > row.MeanMax {
				row.MeanMax = m
			}
		}
		if row.CardMin == 1<<30 {
			row.CardMin = 0
		}
		if row.MeanMin == 1<<30 {
			row.MeanMin = 0
		}
	}
	return row
}

// RenderTable1 prints the Table 1 statistics.
func RenderTable1(rows []Table1Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		card, mean := "N/A", "N/A"
		if r.Homographs > 0 {
			card = fmt.Sprintf("%d-%d", r.CardMin, r.CardMax)
			mean = fmt.Sprintf("%d-%d", r.MeanMin, r.MeanMax)
		}
		out[i] = []string{r.Dataset, itoa(r.Tables), itoa(r.Attributes), itoa(r.Values),
			itoa(r.Homographs), card, mean}
	}
	return "Table 1 — dataset statistics\n" +
		renderTable([]string{"dataset", "#tables", "#attr", "#val", "#hom", "card(H)", "#meanings"}, out)
}
