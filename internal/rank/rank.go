// Package rank turns per-node centrality scores into the ordered candidate
// lists DomainNet presents to the user (paper §3.4, step 3): descending for
// betweenness centrality, ascending for the local clustering coefficient.
package rank

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Scored pairs a data value with its centrality score.
type Scored struct {
	Value string
	Score float64
}

// Order selects the sort direction of a ranking.
type Order int

const (
	// Descending ranks high scores first (betweenness centrality:
	// homographs are hypothesized to score high).
	Descending Order = iota
	// Ascending ranks low scores first (local clustering coefficient:
	// homographs are hypothesized to score low).
	Ascending
)

// Values ranks the value nodes of a graph by score. values[i] must be the
// data value of node i and scores[i] its score; only the first len(values)
// entries of scores are consulted, so a full-graph score slice (including
// attribute nodes) can be passed directly. Ties break lexicographically by
// value so rankings are deterministic.
//
// NaN scores sort last under either order, among themselves by value. The
// detector's measures never emit NaN (their divisions are guarded), but
// scores from a caller or a new measure can, and a comparator that answers
// false for every NaN comparison violates the sort's strict-weak-ordering
// contract, making the whole ranking nondeterministic — not just the NaN
// entries. The order is total over distinct values, so the unstable sort's
// output is fully determined.
func Values(values []string, scores []float64, order Order) []Scored {
	out := make([]Scored, len(values))
	for i, v := range values {
		out[i] = Scored{Value: v, Score: scores[i]}
	}
	slices.SortFunc(out, func(a, b Scored) int {
		if na, nb := math.IsNaN(a.Score), math.IsNaN(b.Score); na || nb {
			switch {
			case na && !nb:
				return 1 // the non-NaN side ranks first
			case nb && !na:
				return -1
			}
		} else if a.Score != b.Score {
			if order == Descending {
				return cmp.Compare(b.Score, a.Score)
			}
			return cmp.Compare(a.Score, b.Score)
		}
		return strings.Compare(a.Value, b.Value)
	})
	return out
}

// TopK returns the first k entries of a ranking (fewer when the ranking is
// shorter, empty for k <= 0 — negative k is a caller bug but must not panic,
// since the library is reached by layers with their own k parsing).
func TopK(ranking []Scored, k int) []Scored {
	if k < 0 {
		k = 0
	}
	if k > len(ranking) {
		k = len(ranking)
	}
	return ranking[:k]
}
