package experiments

import (
	"fmt"

	"domainnet/internal/d4"
	"domainnet/internal/datagen"
	"domainnet/internal/union"
)

// Figure10Point is one (injected count, meanings) setting of the D4 impact
// study.
type Figure10Point struct {
	Injected   int
	Meanings   int
	NumDomains int
	MaxPerCol  int
	AvgPerCol  float64
}

// Figure10Result holds the domain counts D4 discovers as homographs are
// injected into the clean TUS-I lake (§5.5, Figure 10: counts grow with the
// number and meanings of injected homographs; the no-homograph baseline is
// the horizontal line).
type Figure10Result struct {
	BaselineDomains int
	GroundTruth     int // union classes in the generator's ground truth
	Points          []Figure10Point
}

// Figure10 runs D4 on the clean TUS-I base and on injected variants with
// the paper's grid (50..200 homographs × 2/4/6 meanings by default).
func Figure10(cfg datagen.TUSConfig, counts, meanings []int, seed int64) (*Figure10Result, error) {
	if counts == nil {
		counts = []int{50, 100, 150, 200}
	}
	if meanings == nil {
		meanings = []int{2, 4, 6}
	}
	cfg.Homographs = 0
	base := datagen.TUS(cfg).RemoveHomographs()

	res := &Figure10Result{GroundTruth: base.NumClasses()}
	baseline := d4.Run(base.Attrs)
	res.BaselineDomains = baseline.NumDomains()

	for _, m := range meanings {
		for _, c := range counts {
			inj, err := base.Inject(union.InjectOptions{
				Count:    c,
				Meanings: m,
				Seed:     seed + int64(100*m+c),
			})
			if err != nil {
				return nil, fmt.Errorf("figure10 count=%d meanings=%d: %w", c, m, err)
			}
			r := d4.Run(inj.GT.Attrs)
			res.Points = append(res.Points, Figure10Point{
				Injected:   c,
				Meanings:   m,
				NumDomains: r.NumDomains(),
				MaxPerCol:  r.MaxDomainsPerColumn,
				AvgPerCol:  r.AvgDomainsPerColumn,
			})
		}
	}
	return res, nil
}

// Render prints Figure 10 as a table.
func (r *Figure10Result) Render() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{itoa(p.Meanings), itoa(p.Injected), itoa(p.NumDomains),
			itoa(p.MaxPerCol), fmt.Sprintf("%.3f", p.AvgPerCol)}
	}
	return fmt.Sprintf("Figure 10 — D4 domains vs injected homographs (baseline %d domains, ground truth %d classes)\n",
		r.BaselineDomains, r.GroundTruth) +
		renderTable([]string{"#meanings", "#injected", "#domains", "max/col", "avg/col"}, rows)
}
