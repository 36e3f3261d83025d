package bipartite

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// The string-keyed pipeline the ID-based one replaced, kept as the
// reference: every column normalized with table.Normalize into a per-column
// count map, occurrences summed in a map keyed by value, the retained values
// sorted and indexed through a second map, and the CSR filled from
// per-node neighbor lists. FromAttributes and RebuildDiff must reproduce it
// bit for bit: sampled betweenness picks its sources by node id.

// refAttr is one column in the reference's form: distinct normalized
// values with their cell counts.
type refAttr struct {
	values []string
	freqs  []int
}

// refAttributes is the reference ingest of a lake's tables.
func refAttributes(l *lake.Lake) []refAttr {
	var out []refAttr
	for _, t := range l.Tables() {
		for ci := range t.Columns {
			counts := map[string]int{}
			var a refAttr
			for _, raw := range t.Columns[ci].Values {
				v := table.Normalize(raw)
				if table.IsMissing(v) {
					continue
				}
				if counts[v] == 0 {
					a.values = append(a.values, v)
				}
				counts[v]++
			}
			if len(a.values) == 0 {
				continue
			}
			sort.Strings(a.values)
			for _, v := range a.values {
				a.freqs = append(a.freqs, counts[v])
			}
			out = append(out, a)
		}
	}
	return out
}

// refFromAttributes converts interned attributes to the reference's form.
func refFromAttributes(attrs []lake.Attribute) []refAttr {
	out := make([]refAttr, len(attrs))
	for i := range attrs {
		out[i].values = attrs[i].Values()
		for j := range attrs[i].IDs() {
			out[i].freqs = append(out[i].freqs, int(attrs[i].Freqs()[j]))
		}
	}
	return out
}

// refGraph is the reference build's output.
type refGraph struct {
	values      []string
	offsets     []int64
	adj         []int32
	sourceCount int
}

func refBuild(attrs []refAttr, opts Options) refGraph {
	occ := map[string]int64{}
	for _, a := range attrs {
		for j, v := range a.values {
			occ[v] += int64(a.freqs[j])
		}
	}
	var values []string
	for v, c := range occ {
		if opts.KeepSingletons || c >= 2 {
			values = append(values, v)
		}
	}
	sort.Strings(values)
	index := make(map[string]int32, len(values))
	for i, v := range values {
		index[v] = int32(i)
	}
	nVal := len(values)
	nbrs := make([][]int32, nVal+len(attrs))
	for i, a := range attrs {
		u := int32(nVal + i)
		for _, v := range a.values {
			if vi, ok := index[v]; ok {
				nbrs[u] = append(nbrs[u], vi)
				nbrs[vi] = append(nbrs[vi], u)
			}
		}
	}
	r := refGraph{values: values, offsets: make([]int64, 1, len(nbrs)+1), sourceCount: len(occ)}
	for _, nb := range nbrs {
		slices.Sort(nb)
		r.adj = append(r.adj, nb...)
		r.offsets = append(r.offsets, int64(len(r.adj)))
	}
	return r
}

// checkAgainstReference fails unless g is bit-identical to the reference.
func checkAgainstReference(t *testing.T, what string, g *Graph, ref refGraph) {
	t.Helper()
	switch {
	case !slices.Equal(g.Values(), ref.values):
		t.Fatalf("%s: value nodes differ from the reference (%d vs %d)", what, g.NumValues(), len(ref.values))
	case !slices.Equal(g.offsets, ref.offsets):
		t.Fatalf("%s: offsets differ from the reference", what)
	case !slices.Equal(g.adj, ref.adj):
		t.Fatalf("%s: adjacency differs from the reference", what)
	case g.nSource != ref.sourceCount:
		t.Fatalf("%s: nSource = %d, reference %d", what, g.nSource, ref.sourceCount)
	}
}

var referenceOptions = []Options{{}, {KeepSingletons: true}, {Workers: 3}}

// TestFullBuildMatchesReferenceSB: the full build and incremental rebuilds
// over SB seeds 1-20 equal the string-keyed reference.
func TestFullBuildMatchesReferenceSB(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sb := datagen.NewSB(seed).Lake
		for _, opts := range referenceOptions {
			what := fmt.Sprintf("SB seed %d %+v", seed, opts)
			checkAgainstReference(t, what, FromLake(sb, opts), refBuild(refAttributes(sb), opts))

			// Incremental: the lake minus its last table, then the table
			// added back, then its third table removed.
			tables := sb.Tables()
			l := lake.New("partial")
			for _, tb := range tables[:len(tables)-1] {
				l.MustAdd(tb)
			}
			g := FromLake(l, opts)
			l.MustAdd(tables[len(tables)-1])
			g, _ = RebuildDiff(g, l.Attributes(), opts)
			checkAgainstReference(t, what+" after add", g, refBuild(refAttributes(l), opts))
			l.RemoveTable(tables[2].Name)
			g, _ = RebuildDiff(g, l.Attributes(), opts)
			checkAgainstReference(t, what+" after remove", g, refBuild(refAttributes(l), opts))
		}
	}
}

// referenceCells mixes case, padding, Unicode spaces, case mappings that
// change length, invalid UTF-8 and empty cells.
var referenceCells = []string{
	"jaguar", "Jaguar ", " JAGUAR", "\tjaguar\n", "puma", "PUMA", "éclair", "ÉCLAIR", "Éclair ",
	"straße", "STRASSE", " panda", "panda\u0085", "ǆ", "ǅ", "Ǆ", "a\xffb", "A\xffB", "",
	" ", "fiat", "Fiat", "x", "X ", "1", " 1", "tokyo", "Tokyo",
}

// TestBuildsMatchReferenceRandomLakes drives random add/remove histories
// over tables of awkward cells; after every step the full build and the
// chained incremental rebuild must equal the reference, with the filter on
// and off.
func TestBuildsMatchReferenceRandomLakes(t *testing.T) {
	incremental := 0
	for _, opts := range referenceOptions {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			l := lake.New("random")
			var g *Graph
			next := 0
			for step := 0; step < 25; step++ {
				if l.NumTables() > 6 && rng.Intn(2) == 0 {
					l.RemoveTable(l.Tables()[rng.Intn(l.NumTables())].Name)
				} else {
					tb := table.New(fmt.Sprintf("t%d", next))
					next++
					for c := 0; c < 1+rng.Intn(3); c++ {
						cells := make([]string, 1+rng.Intn(6))
						for r := range cells {
							cells[r] = referenceCells[rng.Intn(len(referenceCells))]
						}
						tb.AddColumn(fmt.Sprintf("c%d", c), cells...)
					}
					l.MustAdd(tb)
				}
				attrs := l.Attributes()
				ref := refBuild(refAttributes(l), opts)
				what := fmt.Sprintf("%+v trial %d step %d", opts, trial, step)
				checkAgainstReference(t, what+" full", FromAttributes(attrs, opts), ref)
				var diff *Diff
				g, diff = RebuildDiff(g, attrs, opts)
				if diff != nil && !diff.Full {
					incremental++
				}
				checkAgainstReference(t, what+" incremental", g, ref)
			}
		}
	}
	if incremental == 0 {
		t.Error("no step took the incremental path")
	}
	t.Logf("%d incremental rebuilds", incremental)
}

// TestHandBuiltAttributesMatchReference covers attributes that come from
// lake.NewAttributes (generators, Subgraph) rather than from a lake.
func TestHandBuiltAttributesMatchReference(t *testing.T) {
	attrs := randomAttrs(40, 120, 12, 5)
	for _, opts := range referenceOptions {
		checkAgainstReference(t, fmt.Sprintf("%+v", opts), FromAttributes(attrs, opts),
			refBuild(refFromAttributes(attrs), opts))
	}
}
