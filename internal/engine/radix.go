package engine

import "slices"

// RadixOrder returns the permutation that sorts keys ascending, each run of
// equal keys stably sorted by tie (which compares two indices into keys) or,
// when tie is nil, left in index order. It is an LSD byte-radix sort that
// skips every byte on which all keys agree; its scratch is two permutations.
func RadixOrder(keys []uint64, tie func(a, b uint32) int) []uint32 {
	perm, tmp := make([]uint32, len(keys)), make([]uint32, len(keys))
	for i := range perm {
		perm[i] = uint32(i)
	}
	for shift := uint(0); shift < 64; shift += 8 {
		var count [256]uint32
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		if len(keys) == 0 || count[byte(keys[0]>>shift)] == uint32(len(keys)) {
			continue // every key has this byte
		}
		var start uint32
		for d, c := range count {
			count[d] = start
			start += c
		}
		for _, p := range perm {
			d := byte(keys[p] >> shift)
			tmp[count[d]] = p
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	for lo, hi := 0, 1; tie != nil && hi <= len(perm); hi++ {
		if hi == len(perm) || keys[perm[hi]] != keys[perm[lo]] {
			slices.SortStableFunc(perm[lo:hi], tie)
			lo = hi
		}
	}
	return perm
}
