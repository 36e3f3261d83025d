package bipartite

import (
	"fmt"
	"sort"

	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// FromLakeWithRows builds the tripartite variant discussed in §3.2 ("Tables
// to Graph"): in addition to value–attribute edges, every table row gets a
// row node connected to the values appearing in that row. The paper reports
// that row context did not help homograph detection; this builder exists so
// the ablation benchmark can demonstrate that finding.
func FromLakeWithRows(l *lake.Lake, opts Options) *Graph {
	attrs := l.Attributes()
	g, node := universe(attrs, opts)
	nVal, nAttr := len(g.vals), len(attrs)
	syms := l.Symbols()

	// Collect every row's distinct retained values into one flat slice: row
	// r lists rowVals[rowEnd[r]:rowEnd[r+1]]. Missing cells and singleton-
	// filtered values have no node, and a row left with no value gets no
	// node. Attributes interned every cell's value, so each is looked up
	// after the same normalization ingest ran. Both slices are sized for
	// every cell and row up front, so collection never reallocates.
	cells, rows := 0, 0
	for _, t := range l.Tables() {
		nr := t.NumRows()
		rows += nr
		cells += nr * len(t.Columns)
	}
	rowVals := make([]int32, 0, cells)
	rowEnd := make([]int, 1, rows+1)
	lastRow := make([]int, nVal) // 1 + the last row listing each value
	var norm []byte
	for _, t := range l.Tables() {
		for r := range t.NumRows() {
			row := len(rowEnd)
			for ci := range t.Columns {
				col := t.Columns[ci].Values
				if r >= len(col) {
					continue
				}
				norm = table.AppendNormalized(norm[:0], col[r])
				if table.IsMissing(norm) {
					continue
				}
				id, ok := syms.Lookup(norm)
				if !ok {
					continue
				}
				if int(id) >= len(node) || node[id] < 0 || lastRow[node[id]] == row {
					continue
				}
				vi := node[id]
				lastRow[vi] = row
				rowVals = append(rowVals, vi)
			}
			if len(rowVals) > rowEnd[row-1] {
				rowEnd = append(rowEnd, len(rowVals))
			}
		}
	}
	g.nRows = len(rowEnd) - 1

	g.offsets, g.adj = assemble(nVal, nAttr+g.nRows, opts.Workers, func(i int, dst []int32) []int32 {
		if i < nAttr {
			return appendNodes(dst, attrs[i].IDs(), node)
		}
		r := i - nAttr
		return append(dst, rowVals[rowEnd[r]:rowEnd[r+1]]...)
	})
	return g
}

// rng is the minimal source of randomness Subgraph needs; *rand.Rand
// satisfies it. Declaring the interface here keeps math/rand out of the
// package API surface.
type rng interface {
	Intn(n int) int
}

// Subgraph extracts a random attribute-seeded subgraph with approximately
// targetEdges edges, following the procedure of the paper's footnote 9:
// repeatedly pick a random attribute node, add it together with all its
// value nodes, and stop once the subgraph reaches the requested size. Value
// nodes keep only edges to included attributes.
func (g *Graph) Subgraph(targetEdges int, r rng) *Graph {
	if g.nRows != 0 {
		panic("bipartite: Subgraph is defined for the bipartite form only")
	}
	if targetEdges <= 0 {
		panic(fmt.Sprintf("bipartite: non-positive targetEdges %d", targetEdges))
	}
	nAttr := g.NumAttrs()
	chosen := make(map[int]struct{})
	edges := 0
	for edges < targetEdges && len(chosen) < nAttr {
		ai := r.Intn(nAttr)
		if _, ok := chosen[ai]; ok {
			continue
		}
		chosen[ai] = struct{}{}
		edges += g.Degree(g.AttrNode(ai))
	}

	// Collect the induced attribute list and rebuild through FromAttributes
	// to reuse the (tested) CSR construction path.
	specs := make([]lake.Spec, 0, len(chosen))
	order := make([]int, 0, len(chosen))
	for ai := range chosen {
		order = append(order, ai)
	}
	sort.Ints(order)
	for _, ai := range order {
		a := g.AttrNode(ai)
		vals := make([]string, 0, g.Degree(a))
		for _, v := range g.Neighbors(a) {
			vals = append(vals, g.Value(v))
		}
		specs = append(specs, lake.Spec{ID: g.AttrID(a), Values: vals})
	}
	// Keep singletons: dropping them here would shrink the subgraph below
	// the requested edge budget and distort the scalability measurements.
	return FromAttributes(lake.NewAttributes(specs), Options{KeepSingletons: true})
}
