package engine

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refOrder is the comparison-sort statement of RadixOrder's contract.
func refOrder(keys []uint64) []uint32 {
	perm := make([]uint32, len(keys))
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortStableFunc(perm, func(a, b uint32) int { return cmp.Compare(keys[a], keys[b]) })
	return perm
}

// TestRadixOrderMatchesStableSort covers empty and one-key inputs, keys
// agreeing on every byte, on all but one byte, on high or low bytes only,
// heavy ties and full-width random keys.
func TestRadixOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gens := map[string]func(i int) uint64{
		"constant":  func(int) uint64 { return 0xDEADBEEF },
		"one byte":  func(int) uint64 { return 0xAB00_0000_0000_0000 | uint64(rng.Intn(256))<<24 },
		"low bytes": func(int) uint64 { return uint64(rng.Intn(1000)) },
		"high only": func(int) uint64 { return uint64(rng.Intn(4)) << 62 },
		"ties":      func(int) uint64 { return uint64(rng.Intn(5)) * 0x0101_0101_0101_0101 },
		"random":    func(int) uint64 { return rng.Uint64() },
		"extremes":  func(i int) uint64 { return []uint64{0, 1, 1 << 63, ^uint64(0), ^uint64(0) - 1}[i%5] },
		"downward":  func(i int) uint64 { return ^uint64(i) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(i)
			}
			if got, want := RadixOrder(keys, nil), refOrder(keys); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: RadixOrder differs from the stable comparison sort", name, n)
			}
		}
	}
}

// TestRadixOrderTieBreak: runs of equal keys are stably sorted by tie, and
// nothing else moves.
func TestRadixOrderTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 500)
	rank := make([]int, len(keys)) // the tie-break: descending rank%7, then index
	for i := range keys {
		keys[i] = uint64(rng.Intn(20)) << 40
		rank[i] = rng.Intn(100)
	}
	tie := func(a, b uint32) int { return cmp.Compare(rank[b]%7, rank[a]%7) }
	want := refOrder(keys)
	slices.SortStableFunc(want, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), tie(a, b))
	})
	if got := RadixOrder(keys, tie); !slices.Equal(got, want) {
		t.Fatal("RadixOrder with a tie-break differs from the stable comparison sort")
	}
}
