package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"domainnet/internal/lake"
)

// NYCConfig parameterizes the NYC-Education-scale lake of §5.4. The real
// corpus (201 tables, 3,496 attributes, 1.47M distinct values; bipartite
// graph ~1.5M nodes and ~2.3M edges) is open data the offline build cannot
// fetch; only the graph's size and sparsity matter for the scalability
// experiments (Figure 9), so the generator targets those statistics.
type NYCConfig struct {
	// Scale multiplies the attribute count; 1.0 approximates the paper's
	// graph size, smaller values give proportionally smaller graphs.
	Scale float64
	Seed  int64
}

// NYC generates attributes whose bipartite graph matches the NYC education
// lake's scale: mostly attribute-local identifier-like values plus a shared
// pool of repeated values (school names, districts, codes) that connect
// attributes.
func NYC(cfg NYCConfig) []lake.Attribute {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nAttrs := int(3496 * cfg.Scale)
	if nAttrs < 10 {
		nAttrs = 10
	}
	poolSize := int(450_000 * cfg.Scale)
	if poolSize < 100 {
		poolSize = 100
	}

	specs := make([]lake.Spec, nAttrs)
	for ai := 0; ai < nAttrs; ai++ {
		card := nycCardinality(rng)
		values := make([]string, 0, card)
		freqs := make([]int, 0, card)
		// ~55% of a column is attribute-local (IDs, free text); the rest
		// comes from the shared pool, creating the cross-attribute edges.
		nLocal := int(0.55 * float64(card))
		// The pool draw must stay well below the pool size or the distinct
		// sampling below cannot terminate (small Scale values shrink the
		// pool faster than column cardinalities).
		nPool := card - nLocal
		if nPool > poolSize/2 {
			nPool = poolSize / 2
		}
		for j := 0; j < nLocal; j++ {
			values = append(values, fmt.Sprintf("A%dU%d", ai, j))
			freqs = append(freqs, 2) // repeats within the column; survives the singleton filter
		}
		seen := make(map[int]struct{}, nPool)
		attempts := 0
		for len(seen) < nPool {
			p := int(float64(poolSize) * math.Pow(rng.Float64(), 1.5))
			if p >= poolSize {
				p = poolSize - 1
			}
			attempts++
			if attempts > 20*nPool {
				// Skewed sampling is coupon-collecting; fill the remainder
				// deterministically instead of spinning.
				for q := 0; len(seen) < nPool && q < poolSize; q++ {
					if _, dup := seen[q]; !dup {
						seen[q] = struct{}{}
						values = append(values, fmt.Sprintf("P%d", q))
						freqs = append(freqs, 1+rng.Intn(3))
					}
				}
				break
			}
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			values = append(values, fmt.Sprintf("P%d", p))
			freqs = append(freqs, 1+rng.Intn(3))
		}
		specs[ai] = lake.Spec{
			ID:     fmt.Sprintf("nyc%d.col%d", ai/17, ai%17), // ~201 tables at scale 1
			Table:  fmt.Sprintf("nyc%d", ai/17),
			Column: fmt.Sprintf("col%d", ai%17),
			Values: values,
			Freqs:  freqs,
		}
	}
	return lake.NewAttributes(specs)
}

// nycCardinality draws a column cardinality with the long-tailed profile of
// open data: median a few hundred, occasional columns with tens of
// thousands of values. The mean is tuned so that scale 1.0 yields ~2.3M
// incidence edges over 3,496 attributes (~660 per column).
func nycCardinality(rng *rand.Rand) int {
	if rng.Float64() < 0.01 {
		return 10_000 + rng.Intn(20_000)
	}
	u := rng.Float64()
	card := 20 + int(2400*math.Pow(u, 2))
	return card
}
