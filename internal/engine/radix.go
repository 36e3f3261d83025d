package engine

import (
	"slices"
	"sync"
)

// RadixOrder sorts keys ascending in place and returns the permutation it
// applied: on return keys[i] is the key that was at index perm[i]. Each run
// of equal keys is stably sorted by tie (which compares two original
// indices, the permutation's entries) or, when tie is nil, left in index
// order. Callers hand it a key slice they own as scratch; it allocates only
// the permutation it returns.
//
// It is an LSD byte-radix sort. One pass counts all eight bytes of every
// key; each sorting pass then moves every key together with its
// permutation entry, so no pass reads a key through the permutation, and
// a byte on which all keys agree gets no pass. The passes alternate
// between the caller's slices and a pooled key slice and permutation.
func RadixOrder(keys []uint64, tie func(a, b uint32) int) []uint32 {
	n := len(keys)
	if n == 0 {
		return []uint32{}
	}
	var counts [8][256]uint32 // unrolled below: a loop over the eight ran a quarter slower
	c0, c1, c2, c3 := &counts[0], &counts[1], &counts[2], &counts[3]
	c4, c5, c6, c7 := &counts[4], &counts[5], &counts[6], &counts[7]
	for _, k := range keys {
		c0[byte(k)]++
		c1[byte(k>>8)]++
		c2[byte(k>>16)]++
		c3[byte(k>>24)]++
		c4[byte(k>>32)]++
		c5[byte(k>>40)]++
		c6[byte(k>>48)]++
		c7[byte(k>>56)]++
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	s := radixPool.Get().(*radixScratch)
	defer radixPool.Put(s)
	if cap(s.keys) < n {
		s.keys, s.perm = make([]uint64, n), make([]uint32, n)
	}
	src, dst := keys, s.keys[:n]
	perm, tmp := out, s.perm[:n]
	passes := 0
	for b := range counts {
		count, shift := &counts[b], uint(8*b)
		if count[byte(src[0]>>shift)] == uint32(n) {
			continue // every key has this byte
		}
		var start uint32
		for d, c := range count {
			count[d] = start
			start += c
		}
		for i, k := range src {
			d := byte(k >> shift)
			j := count[d]
			dst[j], tmp[j] = k, perm[i]
			count[d]++
		}
		src, dst = dst, src
		perm, tmp = tmp, perm
		passes++
	}
	if passes%2 == 1 { // the last pass wrote the pooled slices
		copy(keys, src)
		copy(out, perm)
	}
	for lo, hi := 0, 1; tie != nil && hi <= n; hi++ {
		if hi == n || keys[hi] != keys[lo] {
			slices.SortStableFunc(out[lo:hi], tie)
			lo = hi
		}
	}
	return out
}

// radixScratch is the key slice and permutation RadixOrder's passes
// alternate with the caller's; pooled, since every ranking and graph build
// sorts thousands of keys.
type radixScratch struct {
	keys []uint64
	perm []uint32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}
