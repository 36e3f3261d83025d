package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
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

// checkOrder runs RadixOrder on a copy of keys and fails unless it returns
// want and leaves the copy sorted by it, keys[want[i]] at i.
func checkOrder(t *testing.T, what string, keys []uint64, tie func(a, b uint32) int, want []uint32) {
	t.Helper()
	sorted := slices.Clone(keys)
	if got := RadixOrder(sorted, tie); !slices.Equal(got, want) {
		t.Fatalf("%s: RadixOrder %v, the stable comparison sort %v", what, got, want)
	}
	for i, p := range want {
		if sorted[i] != keys[p] {
			t.Fatalf("%s: key %d is %#x after the sort, want %#x", what, i, sorted[i], keys[p])
		}
	}
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
			checkOrder(t, fmt.Sprintf("%s n=%d", name, n), keys, nil, refOrder(keys))
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
	checkOrder(t, "tie-break", keys, tie, want)
}

// FuzzRadixOrder checks RadixOrder against the stable comparison sort, with
// and without a tie-break, on keys cut from the input: each pair of bytes
// (a, r) gives the key a·mul rotated left by r bits, so keys repeat
// whenever pairs do, and land on one byte, several or all of the word. The
// tie-break orders equal keys by descending r%3.
//
//	go test -fuzz=FuzzRadixOrder -fuzztime=10s -run '^$' ./internal/engine
func FuzzRadixOrder(f *testing.F) {
	f.Add([]byte("aAbBaAbBaAcC\x00\x00\xff\xff"), uint64(1))
	f.Add([]byte("\x01\x08\x01\x10\x01\x08\x02\x3f\x01\x10"), uint64(0x0101_0101_0101_0101))
	f.Add(bytes.Repeat([]byte{7, 9, 7, 9, 8, 1}, 100), uint64(0x9E37_79B9_7F4A_7C15))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, mul uint64) {
		data = data[:min(len(data), 2048)]
		keys := make([]uint64, len(data)/2)
		for i := range keys {
			keys[i] = bits.RotateLeft64(uint64(data[2*i])*mul, int(data[2*i+1]))
		}
		tie := func(a, b uint32) int { return cmp.Compare(data[2*b+1]%3, data[2*a+1]%3) }
		checkOrder(t, "no tie-break", keys, nil, refOrder(keys))
		want := refOrder(keys)
		slices.SortStableFunc(want, func(a, b uint32) int {
			return cmp.Or(cmp.Compare(keys[a], keys[b]), tie(a, b))
		})
		checkOrder(t, "tie-break", keys, tie, want)
	})
}
