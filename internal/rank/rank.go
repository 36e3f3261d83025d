// Package rank turns per-node centrality scores into the ordered candidate
// lists DomainNet presents to the user (paper §3.4, step 3): descending for
// betweenness centrality, ascending for the local clustering coefficient.
package rank

import (
	"math"
	"math/bits"
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

// Carry ranks the nodes [0, len(scores)) like Nodes, reusing the order of a
// predecessor's ranking: prev is that ranking, and to maps each of its
// nodes to the node here that kept its score, or to -1 (gone, or its score
// changed). The kept nodes keep prev's order and only the others are
// sorted, then inserted. The walk of prev that collects the kept nodes
// also checks that they are strictly ordered by (score key, node), so a
// result is always Nodes' order. When they are not — say because a rescale
// tied two of them — or two map to one node, or a node is out of range, ok
// is false and the caller must sort with Nodes.
func Carry(prev, to []int32, scores []float64, order Order) (ranked []int32, ok bool) {
	n := len(scores)
	kept := make([]uint64, (n+63)/64) // a bit per node
	ranked = make([]int32, n)         // the kept nodes first, merged in place below
	// The order check compares scores as floats, which is cheaper than
	// their keys: negated for Ascending, each kept score must be below the
	// last, or equal to it (−0 == +0) at a higher node. A NaN fails both
	// comparisons; it ranks last, after any number or a NaN of a lower node.
	sign := 1.0
	if order == Ascending {
		sign = -1
	}
	nKept := 0
	last, lastU := math.Inf(1), int32(-1)
	for _, q := range prev {
		if uint(q) >= uint(len(to)) {
			return nil, false
		}
		u := to[q]
		if u < 0 {
			continue
		}
		if int(u) >= n || kept[u>>6]&(1<<(u&63)) != 0 {
			return nil, false
		}
		kept[u>>6] |= 1 << (u & 63)
		s := sign * scores[u]
		if !(s < last || s == last && u > lastU) && !(s != s && (last == last || u > lastU)) {
			return nil, false
		}
		ranked[nKept] = u
		nKept++
		last, lastU = s, u
	}
	rest, restKeys := make([]int32, 0, n-nKept), make([]uint64, 0, n-nKept)
	for w, word := range kept {
		for free := ^word; free != 0; free &= free - 1 {
			u := w<<6 | bits.TrailingZeros64(free)
			if u >= n {
				break
			}
			rest = append(rest, int32(u))
			restKeys = append(restKeys, scoreKey(scores[u], order))
		}
	}
	// From the back, each of the others goes after the last kept node that
	// ranks before it; the kept runs between them move up whole.
	perm := engine.RadixOrder(restKeys, nil)
	from, at := nKept, n
	for i := len(perm) - 1; i >= 0; i-- {
		u, k := rest[perm[i]], restKeys[i]
		lo := sort.Search(from, func(j int) bool {
			kj := scoreKey(scores[ranked[j]], order)
			return kj > k || kj == k && ranked[j] > u
		})
		at -= from - lo
		copy(ranked[at:], ranked[lo:from])
		at--
		ranked[at] = u
		from = lo
	}
	return ranked, true
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
// complemented for Descending, with −0 folded into +0 and NaN last. Its
// only branch that data can mispredict is NaN's.
func scoreKey(s float64, order Order) uint64 {
	k := math.Float64bits(s)
	if s == 0 {
		k = 0 // −0 == 0: this is +0's key
	}
	k ^= uint64(int64(k)>>63) | 1<<63
	if order == Descending {
		k = ^k
	}
	if s != s {
		k = math.MaxUint64
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
