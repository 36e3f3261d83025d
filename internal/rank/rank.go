// Package rank turns per-node centrality scores into the ordered candidate
// lists DomainNet presents to the user (paper §3.4, step 3): descending for
// betweenness centrality, ascending for the local clustering coefficient.
package rank

import (
	"math"
	"strings"

	"domainnet/internal/engine"
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
// scores from a caller or a new measure can.
//
// Each score maps to an order-preserving integer key for one stable radix
// sort, so tied scores keep index order, which is lexicographic for the
// strictly ascending Graph.Values; any other values list sorts ties by value.
func Values(values []string, scores []float64, order Order) []Scored {
	keys := make([]uint64, len(values))
	var tie func(a, b uint32) int // set when values are not strictly ascending
	for i := range values {
		keys[i] = scoreKey(scores[i], order)
		if i > 0 && values[i-1] >= values[i] {
			tie = func(a, b uint32) int { return strings.Compare(values[a], values[b]) }
		}
	}
	out := make([]Scored, len(values))
	for i, p := range engine.RadixOrder(keys, tie) {
		out[i] = Scored{Value: values[p], Score: scores[p]}
	}
	return out
}

// scoreKey maps a score to a uint64 whose unsigned order is the ranking
// order: the IEEE bits with the sign bit flipped (every bit for negatives),
// complemented for Descending, with −0 folded into +0 and NaN last.
func scoreKey(s float64, order Order) uint64 {
	if math.IsNaN(s) {
		return math.MaxUint64
	}
	if s == 0 {
		s = 0 // −0 == 0: this stores +0
	}
	k := math.Float64bits(s)
	k ^= uint64(int64(k)>>63) | 1<<63
	if order == Descending {
		k = ^k
	}
	return k
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
