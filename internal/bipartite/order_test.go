package bipartite

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/engine"
	"domainnet/internal/lake"
)

// refNumber is the comparison sort number replaced, kept as the reference:
// the retained symbol IDs sorted by strings.Compare of their values.
func refNumber(syms *lake.Symbols, kept []uint32, nSyms int) ([]string, []int32) {
	type sym struct {
		v  string
		id uint32
	}
	sorted := make([]sym, len(kept))
	for i, id := range kept {
		sorted[i] = sym{syms.String(id), id}
	}
	slices.SortFunc(sorted, func(a, b sym) int { return strings.Compare(a.v, b.v) })
	values := make([]string, len(sorted))
	node := make([]int32, nSyms)
	for i := range node {
		node[i] = -1
	}
	for i, s := range sorted {
		values[i] = s.v
		node[s.id] = int32(i)
	}
	return values, node
}

// awkwardValue draws a string that stresses an 8-byte prefix key: shared
// prefixes of 8 bytes and more, embedded and trailing NULs, bytes above
// 0x7f, multi-byte UTF-8 and invalid UTF-8, and the empty string.
func awkwardValue(rng *rand.Rand) string {
	prefixes := []string{"", "A", "ABCDEFG", "ABCDEFGH", "ABCDEFGHI", "\x00\x00\x00\x00\x00\x00\x00\x00"}
	pieces := []string{"\x00", "\x01", "A", "B", "Z", "\x7f", "\x80", "\xff", "É", "ß", "日", "\xc3", " "}
	var b strings.Builder
	b.WriteString(prefixes[rng.Intn(len(prefixes))])
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestNumberMatchesReference: number equals the string sort on awkward
// strings, with kept IDs in ascending and shuffled order, and on SB seeds 1-5.
func TestNumberMatchesReference(t *testing.T) {
	check := func(what string, syms *lake.Symbols, kept []uint32) {
		t.Helper()
		wantValues, wantNode := refNumber(syms, slices.Clone(kept), syms.Len())
		ids := slices.Clone(kept)
		node := number(syms, ids, syms.Len())
		values := make([]string, len(ids))
		for i, id := range ids {
			values[i] = syms.String(id)
		}
		if !slices.Equal(values, wantValues) || !slices.Equal(node, wantNode) {
			t.Fatalf("%s: number differs from the string sort", what)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		syms := lake.NewSymbols()
		for n := rng.Intn(300); n > 0; n-- {
			syms.Add(awkwardValue(rng))
		}
		var kept []uint32
		for id := 0; id < syms.Len(); id++ {
			if rng.Intn(4) != 0 {
				kept = append(kept, uint32(id))
			}
		}
		check(fmt.Sprintf("trial %d", trial), syms, kept)
		rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
		check(fmt.Sprintf("trial %d shuffled", trial), syms, kept)
	}
	for seed := int64(1); seed <= 5; seed++ {
		syms := lake.SymbolsOf(datagen.NewSB(seed).Lake.Attributes())
		kept := make([]uint32, syms.Len())
		for id := range kept {
			kept[id] = uint32(id)
		}
		check(fmt.Sprintf("SB seed %d", seed), syms, kept)
	}
}

// TestValueOrderPresorted: IDs already in byte order, as a symbol table
// loaded from a snapshot numbers them, get the identity permutation; with
// any one adjacent pair swapped, whether or not the pair's radix keys tie,
// they get the permutation RadixOrder gives.
func TestValueOrderPresorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := lake.NewSymbols()
	for n := 0; n < 400; n++ {
		syms.Add(awkwardValue(rng))
	}
	ids := make([]uint32, syms.Len())
	for i := range ids {
		ids[i] = uint32(i)
	}
	SortByValue(syms, ids)
	perm, keys := valueOrder(syms, ids)
	for i, p := range perm {
		if p != uint32(i) {
			t.Fatalf("presorted IDs: perm[%d] = %d, want the identity", i, p)
		}
	}
	ties := 0
	for i := 0; i+1 < len(ids); i++ {
		ids[i], ids[i+1] = ids[i+1], ids[i]
		keys[i], keys[i+1] = keys[i+1], keys[i]
		if keys[i] == keys[i+1] {
			ties++
		}
		want := engine.RadixOrder(slices.Clone(keys), func(a, b uint32) int {
			return strings.Compare(syms.String(ids[a]), syms.String(ids[b]))
		})
		if got, _ := valueOrder(syms, ids); !slices.Equal(got, want) {
			t.Fatalf("pair %d swapped: valueOrder %v, RadixOrder %v", i, got, want)
		}
		ids[i], ids[i+1] = ids[i+1], ids[i]
		keys[i], keys[i+1] = keys[i+1], keys[i]
	}
	if ties == 0 {
		t.Error("no swapped pair tied on its radix key")
	}
}

// checkStrictlyAscending fails unless g's values are strictly ascending, the
// invariant ValueNode, RebuildDiff and rank.Values rely on.
func checkStrictlyAscending(t *testing.T, what string, g *Graph) {
	t.Helper()
	vals := g.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			t.Fatalf("%s: value %d (%q) does not sort after %q", what, i, vals[i], vals[i-1])
		}
	}
}

// TestValuesStrictlyAscending covers every builder: the full build, the
// incremental rebuild under random churn of awkward values with the filter
// on and off, and the tripartite build.
func TestValuesStrictlyAscending(t *testing.T) {
	sb := datagen.NewSB(1).Lake
	for _, opts := range []Options{{}, {KeepSingletons: true}} {
		checkStrictlyAscending(t, "FromAttributes", FromAttributes(sb.Attributes(), opts))
		checkStrictlyAscending(t, "FromLakeWithRows", FromLakeWithRows(sb, opts))

		rng := rand.New(rand.NewSource(9))
		syms := lake.NewSymbols()
		var specs []lake.Spec
		var g *Graph
		incremental := 0
		for step := 0; step < 60; step++ {
			if len(specs) > 8 && rng.Intn(3) == 0 {
				k := rng.Intn(len(specs))
				specs = slices.Delete(specs, k, k+1)
			} else {
				vals := make([]string, 1+rng.Intn(8))
				for i := range vals {
					vals[i] = awkwardValue(rng)
				}
				specs = append(specs, lake.Spec{ID: fmt.Sprintf("a%d", step), Values: vals})
			}
			attrs := syms.Attributes(specs)
			var diff *Diff
			g, diff = RebuildDiff(g, attrs, opts)
			if diff != nil && !diff.Full {
				incremental++
			}
			what := fmt.Sprintf("RebuildDiff %+v step %d", opts, step)
			checkStrictlyAscending(t, what, g)
			if !g.Equal(FromAttributes(attrs, opts)) {
				t.Fatalf("%s: differs from the full build", what)
			}
		}
		if incremental == 0 {
			t.Errorf("%+v: no step took the incremental path", opts)
		}
	}
}
