// Package rank turns per-node centrality scores into the ordered candidate
// lists DomainNet presents to the user (paper §3.4, step 3): descending for
// betweenness centrality, ascending for the local clustering coefficient.
package rank

import (
	"math"
	"sort"
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
// false for every NaN comparison violates sort.Slice's strict-weak-ordering
// contract, making the whole ranking nondeterministic — not just the NaN
// entries.
func Values(values []string, scores []float64, order Order) []Scored {
	out := make([]Scored, len(values))
	for i, v := range values {
		out[i] = Scored{Value: v, Score: scores[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Score, out[j].Score
		if ni, nj := math.IsNaN(si), math.IsNaN(sj); ni || nj {
			if ni != nj {
				return nj // the non-NaN side ranks first
			}
		} else if si != sj {
			if order == Descending {
				return si > sj
			}
			return si < sj
		}
		return out[i].Value < out[j].Value
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
