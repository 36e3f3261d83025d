package centrality

import (
	"domainnet/internal/engine"

	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"domainnet/internal/bipartite"
	"domainnet/internal/lake"
)

// randomAttributes builds a random attribute list over a shared vocabulary,
// producing bipartite graphs with realistic overlap structure.
func randomAttributes(nAttrs, vocab, maxCard int, rng *rand.Rand) []lake.Attribute {
	specs := make([]lake.Spec, nAttrs)
	for a := 0; a < nAttrs; a++ {
		card := 1 + rng.Intn(maxCard)
		seen := make(map[int]struct{})
		var vals []string
		for len(vals) < card && len(seen) < vocab {
			v := rng.Intn(vocab)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			vals = append(vals, fmt.Sprintf("V%03d", v))
		}
		sortStrings(vals)
		specs[a] = lake.Spec{ID: fmt.Sprintf("t.a%d", a), Values: vals}
	}
	return lake.NewAttributes(specs)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestLCCMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		attrs := randomAttributes(2+rng.Intn(8), 4+rng.Intn(30), 12, rng)
		g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
		fast := LCC(g, engine.Opts{})
		slow := LCCNaive(g)
		for u := range fast {
			if math.Abs(fast[u]-slow[u]) > 1e-9 {
				t.Fatalf("trial %d: value node %d (%s): fast %v naive %v",
					trial, u, g.Value(int32(u)), fast[u], slow[u])
			}
		}
	}
}

func TestLCCMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := randomAttributes(2+rng.Intn(6), 5+rng.Intn(20), 8, rng)
		g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
		fast := LCC(g, engine.Opts{})
		slow := LCCNaive(g)
		for u := range fast {
			if math.Abs(fast[u]-slow[u]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLCCBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := randomAttributes(2+rng.Intn(10), 5+rng.Intn(40), 15, rng)
		g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
		for _, scores := range [][]float64{LCC(g, engine.Opts{}), LCCAttributeJaccard(g, engine.Opts{})} {
			for _, v := range scores {
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLCCSingleAttribute(t *testing.T) {
	// All values share one attribute: every pair of values has identical
	// neighbor sets except for the self-exclusion, so the LCC is the same
	// for all and close to 1 for larger columns.
	attrs := lake.NewAttributes([]lake.Spec{{ID: "t.a", Values: []string{"A", "B", "C", "D", "E"}}})
	g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
	scores := LCC(g, engine.Opts{})
	// N(u) has 4 members; J(N(u),N(v)) = (5-2)/... intersection {others} —
	// verify against the oracle rather than hand arithmetic.
	naive := LCCNaive(g)
	for u := range scores {
		if math.Abs(scores[u]-naive[u]) > 1e-12 {
			t.Fatalf("node %d: %v vs naive %v", u, scores[u], naive[u])
		}
		if math.Abs(scores[u]-scores[0]) > 1e-12 {
			t.Fatalf("node %d: expected uniform LCC, got %v vs %v", u, scores[u], scores[0])
		}
	}
}

func TestLCCIsolatedValue(t *testing.T) {
	// A value alone in its attribute has no value-neighbors; its LCC is 0
	// by convention.
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "t.a", Values: []string{"LONER"}},
		{ID: "t.b", Values: []string{"X", "Y"}},
	})
	g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
	u, ok := g.ValueNode("LONER")
	if !ok {
		t.Fatal("LONER not in graph")
	}
	if got := LCC(g, engine.Opts{})[u]; got != 0 {
		t.Errorf("isolated value LCC = %v, want 0", got)
	}
}

func TestLCCAttributeJaccardIdenticalSignatures(t *testing.T) {
	// Two values in exactly the same two attributes have attribute-Jaccard
	// 1 with each other.
	attrs := lake.NewAttributes([]lake.Spec{
		{ID: "t.a", Values: []string{"X", "Y"}},
		{ID: "t.b", Values: []string{"X", "Y"}},
	})
	g := bipartite.FromAttributes(attrs, bipartite.Options{KeepSingletons: true})
	scores := LCCAttributeJaccard(g, engine.Opts{})
	for u := range scores {
		if math.Abs(scores[u]-1) > 1e-12 {
			t.Errorf("node %d: got %v, want 1", u, scores[u])
		}
	}
}

func TestInterUnionSize(t *testing.T) {
	cases := []struct {
		a, b         []int32
		inter, union int
	}{
		{nil, nil, 0, 0},
		{[]int32{1, 2, 3}, nil, 0, 3},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2, 4},
		{[]int32{1, 2}, []int32{3, 4}, 0, 4},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3, 3},
	}
	for i, c := range cases {
		inter, union := interUnionSize(c.a, c.b)
		if inter != c.inter || union != c.union {
			t.Errorf("case %d: got (%d,%d), want (%d,%d)", i, inter, union, c.inter, c.union)
		}
	}
}

func TestInterUnionSymmetric(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		a := sortedSet(int(seedA)%13, int64(seedA))
		b := sortedSet(int(seedB)%13, int64(seedB)+100)
		i1, u1 := interUnionSize(a, b)
		i2, u2 := interUnionSize(b, a)
		return i1 == i2 && u1 == u2 && i1 <= u1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortedSet(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int32]struct{}{}
	for len(seen) < n {
		seen[int32(rng.Intn(20))] = struct{}{}
	}
	out := make([]int32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func TestMergeSorted(t *testing.T) {
	got := mergeSorted([]int32{1, 3, 5}, []int32{2, 3, 6})
	want := []int32{1, 2, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// LCCNaive computes Eq. 1 literally — materializing every value-neighbor set
// (self included, see the package notes in lcc.go) and averaging pairwise
// Jaccard similarities over the proper neighbors. It is the test oracle for
// LCC: quadratic and only usable on small graphs.
func LCCNaive(g Bipartite) []float64 {
	nVal := g.NumValues()
	neigh := make([][]int32, nVal)
	for u := 0; u < nVal; u++ {
		neigh[u] = valueNeighbors(g, int32(u))
	}
	out := make([]float64, nVal)
	for u := 0; u < nVal; u++ {
		if len(neigh[u]) <= 1 {
			continue // only itself: no proper neighbors
		}
		sum := 0.0
		cnt := 0
		for _, v := range neigh[u] {
			if v == int32(u) {
				continue
			}
			inter, uni := interUnionSize(neigh[u], neigh[v])
			if uni > 0 {
				sum += float64(inter) / float64(uni)
			}
			cnt++
		}
		out[u] = sum / float64(cnt)
	}
	return out
}

// valueNeighbors returns the sorted distinct value nodes at distance two
// from value node u, including u itself.
func valueNeighbors(g Bipartite, u int32) []int32 {
	set := map[int32]struct{}{u: {}}
	for _, a := range g.Neighbors(u) {
		for _, w := range g.Neighbors(a) {
			set[w] = struct{}{}
		}
	}
	out := make([]int32, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}
