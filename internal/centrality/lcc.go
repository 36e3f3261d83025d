package centrality

// This file implements the bipartite local clustering coefficient of paper
// Eq. 1: for a value node u with value-neighbors N(u), the average Jaccard
// similarity between N(u) and N(v) over all v in N(u).
//
// The neighborhood N(u) used in the pairwise Jaccard includes u itself (a
// value trivially co-occurs with itself); with that convention the
// implementation reproduces the score ordering of the paper's Example 3.6
// on the Figure 1 lake (Jaguar < Puma < Toyota ≈ Panda). The average is
// still taken over the proper neighbors of u.
//
// Computing Eq. 1 literally is O(Σ_u |N(u)|²) set merges, which is
// intractable for lakes whose columns hold thousands of values. The key
// structural fact making it cheap: N(u) is fully determined by the *set of
// attributes* containing u. Values are therefore grouped by attribute-set
// signature; all members of a group share one neighbor set M_S (the union of
// the group's attribute contents, which includes the member itself), so for
// two neighbors u, v with signatures S and T the pairwise coefficient is
//
//	c_uv = |M_S ∩ M_T| / |M_S ∪ M_T|
//
// Every member of a group contributes the same count of neighbors in every
// other group, so the per-value average is a per-signature quantity,
// computed once per interacting signature pair.

import "domainnet/internal/engine"

// Bipartite is the view LCC needs: a Graph whose first NumValues nodes are
// value nodes and whose remaining nodes are attributes, with sorted neighbor
// lists (bipartite.Graph satisfies this).
type Bipartite interface {
	Graph
	NumValues() int
}

// LCC computes the exact local clustering coefficient of Eq. 1 for every
// value node. The returned slice has length g.NumValues(); nodes with no
// value-neighbors get 0. Lower scores are hypothesized to indicate
// homographs (paper Hypothesis 3.4). Signature unions and per-signature
// coefficients are computed in parallel across opts.Workers.
func LCC(g Bipartite, opts engine.Opts) []float64 {
	return lccBySignature(g, false, opts)
}

// LCCAttributeJaccard computes the fast variant the paper alludes to in
// §3.3 ("no more than the average Jaccard similarity between the sets of
// attributes that a value co-occurs with"): the pairwise coefficient between
// u and v is the Jaccard similarity of their *attribute* sets rather than
// their value-neighbor sets. It is much cheaper on lakes with very large
// columns and preserves the qualitative behaviour of Eq. 1.
func LCCAttributeJaccard(g Bipartite, opts engine.Opts) []float64 {
	return lccBySignature(g, true, opts)
}

type sigInfo struct {
	attrs   []int32 // sorted attribute node ids (the signature)
	members []int32 // value nodes with exactly this signature
	union   []int32 // M_S: sorted union of the signature's attribute contents
}

func lccBySignature(g Bipartite, attrJaccard bool, opts engine.Opts) []float64 {
	nVal := g.NumValues()
	out := make([]float64, nVal)

	// Group value nodes by attribute-set signature (map-ordered, serial).
	sigIdx := make(map[string]int)
	var sigs []*sigInfo
	sigOf := make([]int, nVal)
	for u := 0; u < nVal; u++ {
		attrs := g.Neighbors(int32(u))
		key := signatureKey(attrs)
		idx, ok := sigIdx[key]
		if !ok {
			idx = len(sigs)
			sigIdx[key] = idx
			sigs = append(sigs, &sigInfo{attrs: attrs})
		}
		sigs[idx].members = append(sigs[idx].members, int32(u))
		sigOf[u] = idx
	}

	workers := opts.EffectiveWorkers(len(sigs))

	// Per-signature neighbor union M_S, computed independently per signature.
	engine.ParallelCtx(opts.Context(), workers, len(sigs), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if opts.Cancelled() {
				return
			}
			sigs[i].union = unionOfAttrs(g, sigs[i].attrs)
		}
	})
	if opts.Cancelled() {
		// Some unions are missing; the coefficient pass below would read nil
		// slices as empty sets and score nonsense. The caller discards the
		// result anyway, so stop here.
		return out
	}

	// Attribute -> signatures containing it, to enumerate interacting pairs.
	sigsAt := make(map[int32][]int, g.NumNodes()-nVal)
	for i, s := range sigs {
		// Polled like the shard passes around it: on a wide lake this index
		// touches every edge, and a superseded warm must be able to bail
		// between the two ParallelCtx sweeps.
		if opts.Cancelled() {
			return out
		}
		for _, a := range s.attrs {
			sigsAt[a] = append(sigsAt[a], i)
		}
	}

	// coeff is the pairwise signature coefficient — a pure function, so
	// workers can cache it independently without coordinating.
	coeff := func(i, j int) float64 {
		var inter, uni int
		if attrJaccard {
			inter, uni = interUnionSize(sigs[i].attrs, sigs[j].attrs)
		} else {
			inter, uni = interUnionSize(sigs[i].union, sigs[j].union)
		}
		if uni == 0 {
			return 0
		}
		return float64(inter) / float64(uni)
	}

	// Per-signature LCC: average coefficient over the |M_S|−1 neighbors,
	// grouped by the neighbor's signature. Signatures are sharded across
	// workers; each worker keeps its own (min,max)-keyed coefficient cache,
	// trading a little duplicated work at shard boundaries for zero locking.
	type pairKey struct{ a, b int }
	lccOfSig := make([]float64, len(sigs))
	engine.ParallelCtx(opts.Context(), workers, len(sigs), func(_, lo, hi int) {
		pairC := make(map[pairKey]float64)
		seen := make(map[int]struct{})
		cachedCoeff := func(i, j int) float64 {
			k := pairKey{i, j}
			if i > j {
				k = pairKey{j, i}
			}
			if c, ok := pairC[k]; ok {
				return c
			}
			c := coeff(i, j)
			pairC[k] = c
			return c
		}
		for i := lo; i < hi; i++ {
			if opts.Cancelled() {
				return
			}
			s := sigs[i]
			nNeighbors := len(s.union) - 1
			if nNeighbors <= 0 {
				lccOfSig[i] = 0
				continue
			}
			// Interacting signatures: all signatures sharing >= 1 attribute.
			clear(seen)
			sum := 0.0
			for _, a := range s.attrs {
				for _, j := range sigsAt[a] {
					if _, dup := seen[j]; dup {
						continue
					}
					seen[j] = struct{}{}
					cnt := len(sigs[j].members)
					if j == i {
						cnt-- // a value is not its own neighbor
					}
					if cnt == 0 {
						continue
					}
					sum += float64(cnt) * cachedCoeff(i, j)
				}
			}
			lccOfSig[i] = sum / float64(nNeighbors)
		}
	})

	for u := 0; u < nVal; u++ {
		out[u] = lccOfSig[sigOf[u]]
	}
	return out
}

// signatureKey encodes a sorted int32 slice as a compact string map key.
func signatureKey(attrs []int32) string {
	b := make([]byte, 4*len(attrs))
	for i, a := range attrs {
		b[4*i] = byte(a)
		b[4*i+1] = byte(a >> 8)
		b[4*i+2] = byte(a >> 16)
		b[4*i+3] = byte(a >> 24)
	}
	return string(b)
}

// unionOfAttrs merges the (sorted) value lists of the given attribute nodes
// into one sorted, de-duplicated slice.
func unionOfAttrs(g Graph, attrs []int32) []int32 {
	switch len(attrs) {
	case 0:
		return nil
	case 1:
		nb := g.Neighbors(attrs[0])
		out := make([]int32, len(nb))
		copy(out, nb)
		return out
	}
	cur := append([]int32(nil), g.Neighbors(attrs[0])...)
	for _, a := range attrs[1:] {
		cur = mergeSorted(cur, g.Neighbors(a))
	}
	return cur
}

// mergeSorted returns the sorted union of two sorted slices.
func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// interUnionSize returns the sizes of the intersection and union of two
// sorted slices in one pass.
func interUnionSize(a, b []int32) (inter, union int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			union++
			i++
		case a[i] > b[j]:
			union++
			j++
		default:
			inter++
			union++
			i++
			j++
		}
	}
	union += len(a) - i + len(b) - j
	return inter, union
}
