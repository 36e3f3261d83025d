// Package d4 re-implements the behaviourally relevant core of D4, the
// unsupervised domain-discovery algorithm of Ota, Mueller, Freire and
// Srivastava (PVLDB 2020) that the paper uses as its baseline (§5.1, §5.5).
//
// The pipeline mirrors the mechanisms the paper credits for D4's behaviour:
//
//  1. String columns (D4 ignores numeric data, which is why the paper could
//     not run it on TUS) are clustered into core domains by set overlap.
//  2. Every value in a covered column is assigned to the domain(s) where it
//     has the most column support — the "most popular meaning" heuristic
//     that makes D4 miss skewed homographs.
//  3. Values whose occurrences span several core domains give rise to mixed
//     ("heterogeneous") local domains around their columns; these surface as
//     additional discovered domains, which is how injected homographs
//     inflate D4's domain count in the paper's Figure 10.
//
// A value assigned to two or more domains is reported as a homograph
// candidate, exactly how the paper re-purposes D4 for homograph detection.
// Like DomainNet, the baseline runs unsupervised at fixed parameters: Run
// takes only the attributes.
package d4

import (
	"cmp"
	"sort"
	"strconv"
	"strings"

	"domainnet/internal/lake"
)

// The pipeline's fixed parameters.
const (
	// minOverlap is the overlap coefficient |A∩B| / min(|A|,|B|) at or
	// above which two columns are clustered into one core domain. Open-data
	// columns of the same semantic type often share only a modest slice of
	// a large vocabulary, while columns of different types share at most a
	// few homograph values, so a permissive threshold separates the two
	// regimes cleanly (D4's signature expansion plays the same role).
	minOverlap = 0.15
	// supportRatio is the fraction of the maximum column support at which a
	// secondary meaning is still assigned (the tolerance of the popular-
	// meaning heuristic).
	supportRatio = 0.5
	// numericFraction is the share of numeric values above which a column
	// is considered numeric and skipped.
	numericFraction = 0.5
	// minIntersection is the minimum number of shared values two columns
	// need before the overlap coefficient is even considered. D4's robust
	// signatures play the same role: a single shared value — typically a
	// homograph — must not glue two unrelated columns into one domain.
	minIntersection = 2
)

// Domain is a discovered core domain: a cluster of at least two columns and
// the values assigned to it.
type Domain struct {
	ID      int
	Columns []int    // attribute indices into the input slice
	Values  []string // values assigned to this domain, sorted
}

// Result is the outcome of a D4 run.
type Result struct {
	// Domains holds the discovered core domains.
	Domains []Domain
	// MixedDomains counts the additional heterogeneous local domains formed
	// around values that span several core domains (one per distinct
	// (core domain, foreign-domain signature) combination).
	MixedDomains int
	// CoveredColumns counts string columns assigned to some core domain.
	CoveredColumns int
	// TotalColumns counts all input columns.
	TotalColumns int
	// ValueDomains maps each value in a covered column to the sorted ids of
	// the domains it was assigned to.
	ValueDomains map[string][]int
	// MaxDomainsPerColumn and AvgDomainsPerColumn report how many domains a
	// covered column is involved in (its own core domain plus the distinct
	// foreign domains its values pull in) — the statistic the paper tracks
	// in §5.5.
	MaxDomainsPerColumn int
	AvgDomainsPerColumn float64
}

// NumDomains reports the total number of discovered domains, core plus
// mixed — the y-axis of the paper's Figure 10.
func (r *Result) NumDomains() int { return len(r.Domains) + r.MixedDomains }

// Homographs returns the values assigned to at least two domains, D4's
// notion of a homograph candidate.
func (r *Result) Homographs() map[string]bool {
	out := make(map[string]bool)
	for v, ds := range r.ValueDomains {
		if len(ds) >= 2 {
			out[v] = true
		}
	}
	return out
}

// RankedCandidates orders homograph candidates by the number of domains
// they belong to (descending), then by total column support, then by value;
// the ranking the SB comparison feeds into precision@k.
func (r *Result) RankedCandidates() []string {
	type cand struct {
		v       string
		domains int
	}
	var cands []cand
	for v, ds := range r.ValueDomains {
		if len(ds) >= 2 {
			cands = append(cands, cand{v, len(ds)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].domains != cands[j].domains {
			return cands[i].domains > cands[j].domains
		}
		return cands[i].v < cands[j].v
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.v
	}
	return out
}

// Run executes the D4 pipeline over a lake's attributes, at the fixed
// parameters above.
func Run(attrs []lake.Attribute) *Result {
	res := &Result{TotalColumns: len(attrs), ValueDomains: map[string][]int{}}

	// Stage 0: keep string columns only.
	textCols := make([]int, 0, len(attrs))
	for ai := range attrs {
		if numericShare(attrs[ai].Values()) <= numericFraction {
			textCols = append(textCols, ai)
		}
	}
	if len(textCols) == 0 {
		return res
	}

	// Stage 1: cluster columns by overlap coefficient via union-find.
	// Candidate pairs come from an inverted index so only columns sharing a
	// value are compared.
	pos := make(map[int]int, len(textCols)) // attribute index -> textCols position
	for i, ai := range textCols {
		pos[ai] = i
	}
	syms := lake.SymbolsOf(attrs)
	inv := make(map[uint32][]int) // value ID -> textCols positions
	for i, ai := range textCols {
		for _, id := range attrs[ai].IDs() {
			inv[id] = append(inv[id], i)
		}
	}
	uf := newUnionFind(len(textCols))
	type pair struct{ a, b int }
	tried := make(map[pair]struct{})
	for _, cols := range inv {
		if len(cols) > 64 {
			// Extremely common values (null markers) connect everything;
			// D4's robust signatures discount them. Skip them for pair
			// generation — genuinely similar columns share rarer values too.
			continue
		}
		for x := 0; x < len(cols); x++ {
			for y := x + 1; y < len(cols); y++ {
				p := pair{cols[x], cols[y]}
				if _, done := tried[p]; done {
					continue
				}
				tried[p] = struct{}{}
				a, b := attrs[textCols[cols[x]]].IDs(), attrs[textCols[cols[y]]].IDs()
				inter, coeff := overlapStats(a, b)
				if inter >= minIntersection && coeff >= minOverlap {
					uf.union(cols[x], cols[y])
				}
			}
		}
	}

	// Core domains: clusters with >= 2 columns.
	clusters := make(map[int][]int)
	for i := range textCols {
		root := uf.find(i)
		clusters[root] = append(clusters[root], i)
	}
	roots := make([]int, 0, len(clusters))
	for root, members := range clusters {
		if len(members) >= 2 {
			roots = append(roots, root)
		}
	}
	sort.Ints(roots)
	domainOf := make([]int, len(textCols)) // textCols position -> domain id, -1 uncovered
	for i := range domainOf {
		domainOf[i] = -1
	}
	for id, root := range roots {
		members := clusters[root]
		sort.Ints(members)
		cols := make([]int, len(members))
		for i, m := range members {
			domainOf[m] = id
			cols[i] = textCols[m]
		}
		res.Domains = append(res.Domains, Domain{ID: id, Columns: cols})
	}
	for i := range textCols {
		if domainOf[i] >= 0 {
			res.CoveredColumns++
		}
	}

	// Stage 2: popular-meaning value assignment. Support of a value in a
	// domain is the number of that domain's columns containing it; the
	// value goes to every domain whose support is at least supportRatio of
	// the maximum.
	for id, cols := range inv {
		v := syms.String(id)
		support := make(map[int]int)
		for _, c := range cols {
			if d := domainOf[c]; d >= 0 {
				support[d]++
			}
		}
		if len(support) == 0 {
			continue
		}
		maxSup := 0
		for _, s := range support {
			if s > maxSup {
				maxSup = s
			}
		}
		var assigned []int
		for d, s := range support {
			if float64(s) >= supportRatio*float64(maxSup) {
				assigned = append(assigned, d)
			}
		}
		sort.Ints(assigned)
		res.ValueDomains[v] = assigned
		for _, d := range assigned {
			res.Domains[d].Values = append(res.Domains[d].Values, v)
		}
	}
	for d := range res.Domains {
		sort.Strings(res.Domains[d].Values)
	}

	// Stage 3: mixed local domains. A value whose occurrences span several
	// core domains surrounds each of its columns with a heterogeneous
	// context — even when the popular-meaning heuristic assigned it to only
	// one domain. Each distinct (column's domain, signature of foreign
	// domains) combination surfaces as one extra discovered local domain.
	// Per-column foreign-domain counts feed the §5.5 statistics.
	mixed := make(map[string]struct{})
	foreignPerCol := make(map[int]map[int]struct{}) // textCols position -> foreign domain ids
	for _, cols := range inv {
		spanned := make(map[int]struct{})
		for _, c := range cols {
			if d := domainOf[c]; d >= 0 {
				spanned[d] = struct{}{}
			}
		}
		if len(spanned) < 2 {
			continue
		}
		spannedSorted := make([]int, 0, len(spanned))
		for d := range spanned {
			spannedSorted = append(spannedSorted, d)
		}
		sort.Ints(spannedSorted)
		for _, c := range cols {
			home := domainOf[c]
			if home < 0 {
				continue
			}
			var sigParts []string
			for _, d := range spannedSorted {
				if d != home {
					sigParts = append(sigParts, strconv.Itoa(d))
					fp, ok := foreignPerCol[c]
					if !ok {
						fp = make(map[int]struct{})
						foreignPerCol[c] = fp
					}
					fp[d] = struct{}{}
				}
			}
			if len(sigParts) == 0 {
				continue
			}
			key := strconv.Itoa(home) + "|" + strings.Join(sigParts, ",")
			mixed[key] = struct{}{}
		}
	}
	res.MixedDomains = len(mixed)

	if res.CoveredColumns > 0 {
		total := 0
		for i := range textCols {
			if domainOf[i] < 0 {
				continue
			}
			n := 1 + len(foreignPerCol[i])
			total += n
			if n > res.MaxDomainsPerColumn {
				res.MaxDomainsPerColumn = n
			}
		}
		res.AvgDomainsPerColumn = float64(total) / float64(res.CoveredColumns)
	}
	return res
}

// numericShare reports the fraction of values parsing as numbers.
func numericShare(values []string) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if _, err := strconv.ParseFloat(strings.ReplaceAll(v, ",", ""), 64); err == nil {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// overlapStats returns the intersection size and the overlap coefficient
// |A∩B| / min(|A|,|B|) of two sorted slices.
func overlapStats[T cmp.Ordered](a, b []T) (int, float64) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	return inter, float64(inter) / float64(m)
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
