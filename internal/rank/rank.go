// Package rank turns per-node centrality scores into the ordered candidate
// lists DomainNet presents to the user (paper §3.4, step 3): descending for
// betweenness centrality, ascending for the local clustering coefficient.
package rank

import (
	"math"
	"sort"
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
	keys := scoreKeys(scores[:len(values)], order)
	var tie func(a, b uint32) int // set when values are not strictly ascending
	for i := 1; i < len(values); i++ {
		if values[i-1] >= values[i] {
			tie = func(a, b uint32) int { return strings.Compare(values[a], values[b]) }
			break
		}
	}
	out := make([]Scored, len(values))
	for i, p := range engine.RadixOrder(keys, tie) {
		out[i] = Scored{Value: values[p], Score: scores[p]}
	}
	return out
}

// Nodes ranks the nodes [0, len(scores)) by score, ties by node ID: the
// order Values gives a strictly ascending values list, without reading it.
// The detector ranks its value nodes this way, since their IDs follow the
// lexicographic Graph.Values.
func Nodes(scores []float64, order Order) []int32 {
	perm := engine.RadixOrder(scoreKeys(scores, order), nil)
	out := make([]int32, len(perm))
	for i, p := range perm {
		out[i] = int32(p)
	}
	return out
}

// Carry ranks the nodes [0, len(scores)) like Nodes, reusing an order known
// from a predecessor: kept lists distinct nodes in the order that ranking
// gave them (its survivors whose scores did not change), and only the other
// nodes are sorted, then inserted. One pass checks that kept is strictly
// ordered by (score key, node), so a result is always Nodes' order. When it
// is not — say because a rescale tied two of its nodes — or kept repeats a
// node or holds one out of range, ok is false and the caller must sort with
// Nodes.
func Carry(kept []int32, scores []float64, order Order) (ranked []int32, ok bool) {
	keyOf := func(u int32) uint64 { return scoreKey(scores[u], order) }
	isKept := make([]bool, len(scores))
	var last uint64
	for i, u := range kept {
		if u < 0 || int(u) >= len(scores) || isKept[u] {
			return nil, false
		}
		isKept[u] = true
		k := scoreKey(scores[u], order)
		if i > 0 && (k < last || k == last && u < kept[i-1]) {
			return nil, false
		}
		last = k
	}
	var rest []int32
	var restKeys []uint64
	for u, k := range isKept {
		if !k {
			rest = append(rest, int32(u))
			restKeys = append(restKeys, keyOf(int32(u)))
		}
	}
	// Each of the others goes before the first kept node that ranks after
	// it; kept runs between them are copied whole.
	ranked = make([]int32, 0, len(scores))
	from := 0
	for _, p := range engine.RadixOrder(restKeys, nil) {
		u, k := rest[p], restKeys[p]
		at := from + sort.Search(len(kept)-from, func(i int) bool {
			ki := keyOf(kept[from+i])
			return ki > k || ki == k && kept[from+i] > u
		})
		ranked = append(append(ranked, kept[from:at]...), u)
		from = at
	}
	return append(ranked, kept[from:]...), true
}

// scoreKeys maps every score to its scoreKey.
func scoreKeys(scores []float64, order Order) []uint64 {
	keys := make([]uint64, len(scores))
	for i, s := range scores {
		keys[i] = scoreKey(s, order)
	}
	return keys
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
