package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"domainnet/internal/lake"
	"domainnet/internal/union"
)

// TUSConfig parameterizes the synthetic stand-in for the Table Union Search
// benchmark (§4.2). The real TUS corpus (1,327 UK/Canada open-data tables)
// is not available offline; this generator reproduces its statistical shape:
// union classes of columns with heavy cardinality skew (3 to ~22k distinct
// values per column), numeric and string attributes, and natural homographs
// with 2..100 meanings. See DESIGN.md §4.
type TUSConfig struct {
	// Domains is the number of union classes (unionable column groups).
	Domains int
	// NumericDomains is how many of the domains hold integer values drawn
	// from 1..vocabSize; overlapping small integers across such domains
	// produce the numeric homographs the paper highlights ("50", "125", "2").
	NumericDomains int
	// MaxVocab is the vocabulary size of the largest domain; later domains
	// shrink by a power law.
	MaxVocab int
	// Attrs is the total attribute (column) count.
	Attrs int
	// Tables is the table count (attributes are distributed round-robin;
	// tables only matter for naming and Table 1 statistics).
	Tables int
	// Homographs is the number of planted natural string homographs
	// ("NATHOM<i>"); 0 yields a lake whose only homographs are numeric
	// overlaps, suitable as a TUS-I base after RemoveHomographs.
	Homographs int
	// MaxMeanings caps the meanings of planted homographs (paper: up to
	// 100). Minimum 2 when Homographs > 0.
	MaxMeanings int
	// Seed drives all randomness.
	Seed int64
}

// SmallTUS is a reduced-scale configuration for unit tests: a few thousand
// values, sub-second end-to-end detection.
func SmallTUS() TUSConfig {
	return TUSConfig{
		Domains:        24,
		NumericDomains: 4,
		MaxVocab:       900,
		Attrs:          180,
		Tables:         40,
		Homographs:     60,
		MaxMeanings:    8,
		Seed:           1,
	}
}

// MediumTUS is the scale used by the experiment harness: large enough for
// the paper's ranking behaviour to emerge, small enough to iterate on.
func MediumTUS() TUSConfig {
	return TUSConfig{
		Domains:        68,
		NumericDomains: 10,
		MaxVocab:       4000,
		Attrs:          900,
		Tables:         140,
		Homographs:     400,
		MaxMeanings:    40,
		Seed:           1,
	}
}

// FullTUS approaches the paper's Table 1 statistics (1,327 tables, 9,859
// attributes, ~190k values, ~26k homographs). Intended for benchmarks.
func FullTUS() TUSConfig {
	return TUSConfig{
		Domains:        120,
		NumericDomains: 18,
		MaxVocab:       22000,
		Attrs:          9859,
		Tables:         1327,
		Homographs:     3000,
		MaxMeanings:    100,
		Seed:           1,
	}
}

// TUS generates a lake with union-class ground truth per the configuration.
func TUS(cfg TUSConfig) *union.GroundTruth {
	if cfg.Domains < 2 {
		panic("datagen: TUS needs at least 2 domains")
	}
	if cfg.Attrs < 2*cfg.Domains {
		cfg.Attrs = 2 * cfg.Domains // every domain needs >= 2 columns
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-domain vocabularies, power-law sized. Vocabulary order encodes
	// popularity: earlier entries are sampled into more columns.
	vocabs := make([][]string, cfg.Domains)
	for d := 0; d < cfg.Domains; d++ {
		size := int(float64(cfg.MaxVocab) / math.Pow(float64(d+1), 0.85))
		if size < 20 {
			size = 20
		}
		voc := make([]string, size)
		if d < cfg.NumericDomains {
			for i := 0; i < size; i++ {
				voc[i] = fmt.Sprintf("%d", i+1)
			}
		} else {
			for i := 0; i < size; i++ {
				voc[i] = fmt.Sprintf("D%dV%d", d, i)
			}
		}
		vocabs[d] = voc
	}

	// Distribute attributes across domains with mild skew, >= 2 each.
	attrsOf := distributeAttrs(cfg.Attrs, cfg.Domains, rng)

	type attrDraft struct {
		domain int
		values []string
		freqs  []int
	}
	var drafts []attrDraft
	for d := 0; d < cfg.Domains; d++ {
		voc := vocabs[d]
		for k := 0; k < attrsOf[d]; k++ {
			card := sampleCardinality(len(voc), rng)
			values, freqs := sampleColumn(voc, card, rng)
			drafts = append(drafts, attrDraft{domain: d, values: values, freqs: freqs})
		}
	}

	// Plant natural homographs: insert NATHOM<i> into one or two columns of
	// each of m distinct domains, m drawn from a skewed distribution.
	attrsByDomain := make([][]int, cfg.Domains)
	for i := range drafts {
		attrsByDomain[drafts[i].domain] = append(attrsByDomain[drafts[i].domain], i)
	}
	for h := 0; h < cfg.Homographs; h++ {
		m := sampleMeanings(cfg.MaxMeanings, rng)
		if m > cfg.Domains {
			m = cfg.Domains
		}
		name := fmt.Sprintf("NATHOM%d", h+1)
		for _, d := range rng.Perm(cfg.Domains)[:m] {
			cols := attrsByDomain[d]
			nCols := 1 + rng.Intn(2)
			for _, ci := range rng.Perm(len(cols)) {
				if nCols == 0 {
					break
				}
				nCols--
				a := &drafts[cols[ci]]
				a.values = append(a.values, name)
				a.freqs = append(a.freqs, 1+rng.Intn(3))
			}
		}
	}

	// Materialize the attributes with table-based IDs.
	specs := make([]lake.Spec, len(drafts))
	gt := &union.GroundTruth{ClassOf: make([]int, len(drafts))}
	tables := cfg.Tables
	if tables < 1 {
		tables = 1
	}
	colInTable := make([]int, tables)
	for i := range drafts {
		ti := i % tables
		specs[i] = lake.Spec{
			ID:     fmt.Sprintf("table%d.col%d", ti, colInTable[ti]),
			Table:  fmt.Sprintf("table%d", ti),
			Column: fmt.Sprintf("col%d", colInTable[ti]),
			Values: drafts[i].values,
			Freqs:  drafts[i].freqs,
		}
		colInTable[ti]++
		gt.ClassOf[i] = drafts[i].domain
	}
	gt.Attrs = lake.NewAttributes(specs)
	return gt
}

// distributeAttrs splits total attributes over domains with power-law skew,
// guaranteeing at least two per domain.
func distributeAttrs(total, domains int, rng *rand.Rand) []int {
	out := make([]int, domains)
	remaining := total - 2*domains
	for d := range out {
		out[d] = 2
	}
	weights := make([]float64, domains)
	sum := 0.0
	for d := range weights {
		weights[d] = 1.0 / math.Pow(float64(d+1), 0.7)
		sum += weights[d]
	}
	for d := range out {
		share := int(float64(remaining) * weights[d] / sum)
		out[d] += share
	}
	// Spread any rounding leftovers deterministically.
	assigned := 0
	for _, n := range out {
		assigned += n
	}
	for i := 0; assigned < total; i++ {
		out[i%domains]++
		assigned++
	}
	_ = rng
	return out
}

// sampleCardinality draws a column cardinality in [3, vocabSize], skewed
// toward small columns as in open data lakes (§4.2: TUS cardinalities have
// high skew, ranging 3..22,703).
func sampleCardinality(vocabSize int, rng *rand.Rand) int {
	u := rng.Float64()
	card := 3 + int(float64(vocabSize-3)*math.Pow(u, 2.8))
	if card > vocabSize {
		card = vocabSize
	}
	if card < 3 {
		card = 3
	}
	return card
}

// sampleColumn picks card distinct values from a domain vocabulary: the
// popular head (first half of the requested cardinality) plus a random
// sample of the remaining vocabulary. Head values repeat within the column
// (frequency 2+), tail values mostly occur once — reproducing the ~3%
// singleton removal the paper observes on TUS.
func sampleColumn(voc []string, card int, rng *rand.Rand) ([]string, []int) {
	head := card / 2
	if head > len(voc) {
		head = len(voc)
	}
	values := make([]string, 0, card)
	freqs := make([]int, 0, card)
	for i := 0; i < head; i++ {
		values = append(values, voc[i])
		freqs = append(freqs, 2+rng.Intn(4))
	}
	if card > head && len(voc) > head {
		tail := voc[head:]
		need := card - head
		if need > len(tail) {
			need = len(tail)
		}
		for _, i := range rng.Perm(len(tail))[:need] {
			values = append(values, tail[i])
			f := 1
			if rng.Float64() < 0.35 {
				f = 2
			}
			freqs = append(freqs, f)
		}
	}
	return values, freqs
}

// sampleMeanings draws the number of meanings of a planted homograph:
// mostly 2, with a heavy tail up to maxMeanings (TUS homographs span 2..100
// union classes).
func sampleMeanings(maxMeanings int, rng *rand.Rand) int {
	if maxMeanings < 2 {
		maxMeanings = 2
	}
	// Discrete Pareto-like: P(m) ∝ 1/m².
	u := rng.Float64()
	m := int(2.0 / (1.0 - u*(1.0-2.0/float64(maxMeanings+1))))
	if m < 2 {
		m = 2
	}
	if m > maxMeanings {
		m = maxMeanings
	}
	return m
}
