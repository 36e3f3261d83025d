package rank

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/centrality"
	"domainnet/internal/datagen"
	"domainnet/internal/engine"
	"domainnet/internal/lake"
)

// refValues is the comparison sort Values replaced, kept as the reference:
// scores in order, NaN last, ties by value. Values must reproduce it exactly.
func refValues(values []string, scores []float64, order Order) []Scored {
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

// checkAgainstReference fails unless Values equals refValues entry for
// entry: the same values, and the same score bits (so NaN and −0 compare).
func checkAgainstReference(t *testing.T, what string, values []string, scores []float64) {
	t.Helper()
	for _, order := range []Order{Descending, Ascending} {
		got, want := Values(values, scores, order), refValues(values, scores, order)
		if !slices.Equal(rankedValues(got), rankedValues(want)) || !slices.Equal(scoreBits(got), scoreBits(want)) {
			t.Fatalf("%s order %d: ranking differs from the comparison sort", what, order)
		}
	}
}

func rankedValues(r []Scored) []string {
	out := make([]string, len(r))
	for i := range r {
		out[i] = r[i].Value
	}
	return out
}

func scoreBits(r []Scored) []uint64 {
	out := make([]uint64, len(r))
	for i := range r {
		out[i] = math.Float64bits(r[i].Score)
	}
	return out
}

// awkwardScores is a small pool, so most draws tie: NaN, both zeros, both
// infinities, extremes, subnormals and ordinary values of both signs.
var awkwardScores = []float64{
	math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, 0.5, -0.5, 1e-300, 3,
}

// TestValuesMatchReference draws scores with NaN, ±0, ±Inf and many ties
// over ascending, shuffled and empty value lists, with score slices longer
// than the value list as the detector passes them.
func TestValuesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkAgainstReference(t, "empty", nil, nil)
	checkAgainstReference(t, "empty with scores", nil, []float64{1, 2})
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		values := make([]string, n)
		for i := range values {
			values[i] = fmt.Sprintf("V%05d", i)
		}
		if trial%2 == 1 {
			rng.Shuffle(n, func(i, j int) { values[i], values[j] = values[j], values[i] })
		}
		scores := make([]float64, n+rng.Intn(5))
		pool := awkwardScores[:1+rng.Intn(len(awkwardScores))]
		for i := range scores {
			if rng.Intn(4) == 0 {
				scores[i] = rng.NormFloat64()
			} else {
				scores[i] = pool[rng.Intn(len(pool))]
			}
		}
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), values, scores)
	}
}

// TestValuesMatchReferenceSB ranks the value nodes of SB seeds 1-5 under
// every score shape the detector produces: exact and sampled betweenness
// (ties within twin classes), LCC (ascending, heavy ties) and degree.
func TestValuesMatchReferenceSB(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := bipartite.FromLake(datagen.NewSB(seed).Lake, bipartite.Options{})
		opts := engine.Opts{Seed: seed}
		for name, scores := range map[string][]float64{
			"bc-exact": centrality.Betweenness(g, opts),
			"bc":       centrality.ApproxBetweenness(g, opts),
			"lcc":      centrality.LCC(g, opts),
			"degree":   centrality.Degree(g),
		} {
			checkAgainstReference(t, fmt.Sprintf("SB seed %d %s", seed, name), g.Values(), scores)
		}
	}
}

// FuzzValueOrder checks both radix orders against their references: the
// value nodes of a graph over the fuzzed strings must be the distinct
// strings in string-sort order, and ranking them (and the unsorted input
// list) under scores derived from the same bytes must equal refValues.
func FuzzValueOrder(f *testing.F) {
	f.Add("ABCDEFGH1|ABCDEFGH|ABCDEFG\x00|ABCDEFG|A\x00B|\xff|ÉCLAIR|A\xffB", uint64(1))
	f.Add("B|A|B|C|JAGUAR|JAGUARS|JAGUAR\x00", uint64(0x7ff8_0000_0000_0001))
	f.Fuzz(func(t *testing.T, joined string, bits uint64) {
		cells := strings.Split(joined, "|")
		attrs := lake.NewAttributes([]lake.Spec{{ID: "a", Values: cells}})
		g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
		want := slices.Compact(slices.Sorted(slices.Values(cells)))
		if !slices.Equal(g.Values(), want) {
			t.Fatalf("value nodes %q, want %q", g.Values(), want)
		}
		scores := make([]float64, len(cells))
		for i := range scores {
			// A few bits of the seed pick each score from the awkward pool
			// or reinterpret the seed itself, NaN payloads included.
			if sel := (bits >> (i % 16 * 4)) & 15; int(sel) < len(awkwardScores) {
				scores[i] = awkwardScores[sel]
			} else {
				scores[i] = math.Float64frombits(bits ^ uint64(i))
			}
		}
		checkAgainstReference(t, "graph values", g.Values(), scores)
		if len(want) == len(cells) { // the reference orders duplicates arbitrarily
			checkAgainstReference(t, "input values", cells, scores)
		}
	})
}
