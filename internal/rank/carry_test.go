package rank

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestNodesMatchValues: Nodes is Values' order over a strictly ascending
// values list, on the reference test's awkward scores.
func TestNodesMatchValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(150)
		values, scores := make([]string, n), make([]float64, n)
		for i := range values {
			values[i] = fmt.Sprintf("V%05d", i)
			scores[i] = awkwardScores[rng.Intn(len(awkwardScores))]
		}
		for _, order := range []Order{Descending, Ascending} {
			want := Values(values, scores, order)
			for i, u := range Nodes(scores, order) {
				if values[u] != want[i].Value {
					t.Fatalf("trial %d order %d rank %d: node %s, Values has %s", trial, order, i, values[u], want[i].Value)
				}
			}
		}
	}
}

// TestCarryInsertsChangedNodes: the kept nodes keep their order and the
// others land where the full sort puts them, ties by node.
func TestCarryInsertsChangedNodes(t *testing.T) {
	scores := []float64{5, 1, 3, 3, 9, 0}
	// The predecessor ranked its nodes 2, 0, 1, 3; they are 4, 0, 1 here,
	// and its node 3 is gone.
	got, ok := Carry([]int32{2, 0, 1, 3}, []int32{0, 1, 4, -1}, scores, Descending)
	if want := []int32{4, 0, 2, 3, 1, 5}; !ok || !slices.Equal(got, want) {
		t.Errorf("Carry = %v, %v; want %v, true", got, ok, want)
	}
}

// TestCarryFallsBackOnRescaleTie: two survivors with distinct scores whose
// rescale rounds them to one value must be ordered by node, which is not
// the order they kept; Carry must report the fallback.
func TestCarryFallsBackOnRescaleTie(t *testing.T) {
	prev := []float64{1, math.Nextafter(1, 2)}
	prevOrder := Nodes(prev, Descending) // node 1 first
	scale := math.SmallestNonzeroFloat64
	scores := []float64{prev[0] * scale, prev[1] * scale}
	if scores[0] != scores[1] || !slices.Equal(prevOrder, []int32{1, 0}) {
		t.Fatalf("test setup: scores %v, previous order %v", scores, prevOrder)
	}
	if got, ok := Carry(prevOrder, []int32{0, 1}, scores, Descending); ok {
		t.Errorf("Carry = %v over a rescale tie, want the fallback", got)
	}
	// Two nodes mapped to one, a node out of range here, and predecessor
	// nodes out of to's range.
	for _, c := range []struct{ prev, to []int32 }{
		{[]int32{0, 1}, []int32{0, 0}}, {[]int32{0}, []int32{2}}, {[]int32{1}, []int32{0}}, {[]int32{-1}, []int32{0}},
	} {
		if got, ok := Carry(c.prev, c.to, scores, Descending); ok {
			t.Errorf("Carry(%v, %v) = %v, want the fallback", c.prev, c.to, got)
		}
	}
}

// TestCarryChecksTieOrder: kept nodes with tied scores, NaNs included, carry
// when the map keeps them in node order, and make Carry report the fallback,
// in either order, when it does not; a NaN before a number must too.
func TestCarryChecksTieOrder(t *testing.T) {
	for _, scores := range [][]float64{{2, 2}, {math.NaN(), math.NaN()}, {0, math.Copysign(0, -1)}} {
		for _, order := range []Order{Descending, Ascending} {
			if got, ok := Carry([]int32{0, 1}, []int32{0, 1}, scores, order); !ok || !slices.Equal(got, []int32{0, 1}) {
				t.Errorf("Carry over tied scores %v in node order = %v, %v; want [0 1], true", scores, got, ok)
			}
			if got, ok := Carry([]int32{0, 1}, []int32{1, 0}, scores, order); ok {
				t.Errorf("Carry over tied scores %v = %v, want the fallback", scores, got)
			}
		}
	}
	for _, order := range []Order{Descending, Ascending} {
		if got, ok := Carry([]int32{0, 1}, []int32{0, 1}, []float64{math.NaN(), 1}, order); ok {
			t.Errorf("Carry with a NaN first = %v, want the fallback", got)
		}
	}
}

// FuzzRankCarry checks that Carry never returns an order other than Nodes'.
// The fuzzed bytes pick each predecessor node's score from the awkward pool
// (NaN, ±0, ±Inf, subnormals, ties) and whether it keeps it, rescaled by
// the fuzzed factor (which can round distinct scores into ties, or flip
// them), or takes a new one. The seed adds new nodes, numbers the survivors
// in order or shuffled, and sometimes corrupts the carry with a node mapped
// to a survivor's, a node out of range, or a predecessor node outside the
// map.
func FuzzRankCarry(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x2f, 0x09, 0x31}, math.Float64bits(0.5), int64(1))
	f.Add([]byte("ties and zeros \x00\x01\x02\x03"), math.Float64bits(math.SmallestNonzeroFloat64), int64(2))
	f.Add(bytes.Repeat([]byte{0x0b, 0x1b, 0x0e}, 30), math.Float64bits(1), int64(3))
	f.Add([]byte{0x09, 0x0a, 0x0b, 0x0c}, math.Float64bits(-2), int64(12))
	f.Add([]byte{0x01, 0x02, 0x03}, math.Float64bits(1), int64(8|64|128))
	f.Fuzz(func(t *testing.T, data []byte, scaleBits uint64, seed int64) {
		data = data[:min(len(data), 300)]
		rng := rand.New(rand.NewSource(seed))
		pick := func(b byte) float64 {
			if int(b) < len(awkwardScores) {
				return awkwardScores[b]
			}
			return float64(b) - 20
		}
		scale := math.Float64frombits(scaleBits)
		n, added := len(data), int(seed&7)
		prevScores := make([]float64, n)
		for q, b := range data {
			prevScores[q] = pick(b & 31)
		}
		// to numbers the survivors among the successor's n+added nodes.
		free := rng.Perm(n + added)[added:]
		if seed&16 == 0 {
			slices.Sort(free)
		}
		to := make([]int32, n)
		for q := range to {
			to[q] = int32(free[q])
		}
		scores := make([]float64, n+added)
		for u := range scores {
			scores[u] = pick(byte(rng.Intn(32)))
		}
		for q, b := range data {
			if b&32 == 0 {
				scores[to[q]] = prevScores[q] * scale
			}
		}
		// kept is Carry's to: the survivors that kept their score.
		kept := slices.Clone(to)
		for q, b := range data {
			if b&32 != 0 {
				kept[q] = -1
			}
		}
		for _, order := range []Order{Descending, Ascending} {
			prev, kept := Nodes(prevScores, order), slices.Clone(kept)
			if seed&8 != 0 && n > 0 {
				prev, kept = append(prev, int32(len(kept))), append(kept, to[rng.Intn(n)])
			}
			if seed&64 != 0 {
				prev, kept = append(prev, int32(len(kept))), append(kept, int32(len(scores)+rng.Intn(3)))
			}
			if seed&128 != 0 {
				prev = append(prev, int32(len(kept)+rng.Intn(3)))
			}
			got, ok := Carry(prev, kept, scores, order)
			if want := Nodes(scores, order); ok && !slices.Equal(got, want) {
				t.Fatalf("order %d: Carry(%v, %v) = %v, full sort %v (scores %v)", order, prev, kept, got, want, scores)
			}
		}
	})
}
