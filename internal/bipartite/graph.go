// Package bipartite implements the DomainNet graph (paper §3.2): an
// undirected bipartite graph whose nodes are the distinct data values and
// the attributes (table columns) of a data lake, with an edge between a
// value node and an attribute node whenever the value occurs in the column.
//
// The graph is stored in compressed sparse row (CSR) form so that the BFS
// passes of betweenness centrality stream through memory; the node count of
// real lakes (the NYC dataset has ~1.5M nodes, ~2.3M edges) makes pointer-
// chasing adjacency lists needlessly slow.
//
// Node numbering: value nodes occupy [0, NumValues), attribute nodes occupy
// [NumValues, NumValues+NumAttrs). An optional third range of row nodes
// supports the tripartite ablation discussed in §3.2 ("Tables to Graph").
package bipartite

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"domainnet/internal/engine"
	"domainnet/internal/lake"
)

// Graph is an undirected CSR graph over value, attribute and (optionally)
// row nodes. It is immutable after construction.
type Graph struct {
	// vals maps value node id -> the symbol ID of its normalized value, and
	// names, a Frozen view of syms, maps the ID to the string. Readers of a
	// published graph may read names while the writer keeps interning. IDs
	// hold no pointers, so a rebuild copies them with no write barrier and
	// the collector never scans them.
	vals  []uint32
	names *lake.Symbols
	attrs []string // attribute node id - NumValues() -> attribute ID
	nRows int      // number of row nodes (tripartite variant only)

	offsets []int64 // len NumNodes()+1
	adj     []int32 // concatenated sorted neighbor lists

	// Incremental-rebuild state (see RebuildDiff), writer-side only: readers
	// of a published graph use names, never syms. srcAttrs aliases the
	// attributes the graph was built from and syms is their symbol table.
	// occ holds every value's total cell count by symbol ID — including
	// values the singleton filter dropped, since an update can push them over
	// the threshold — and nSource counts the nonzero ones. No symbol ID →
	// node map is kept: a rebuild finds the few nodes it needs by value.
	// keys holds each value's valueKey, parallel to vals, so a rebuild
	// searches the values mostly without touching their bytes. A full build
	// leaves it nil; a rebuild derives it when its prev has none.
	// incremental marks graphs with this state populated: every
	// FromAttributes and RebuildDiff output, but not the tripartite graph. A
	// graph that RebuildDiff rebuilt from hands occ on to its successor,
	// which updates the counts in place, and loses the mark.
	syms           *lake.Symbols
	srcAttrs       []lake.Attribute
	occ            []int64
	nSource        int
	keys           []uint64
	keepSingletons bool
	incremental    bool
	// touched and patched count the work of the RebuildDiff that made the
	// graph, for the cost tests: the values whose cell counts it recounted,
	// and the adjacency lists it merged edge by edge rather than carried
	// over as a run.
	touched, patched int
}

// NumValues reports the number of value nodes.
func (g *Graph) NumValues() int { return len(g.vals) }

// NumAttrs reports the number of attribute nodes.
func (g *Graph) NumAttrs() int { return len(g.attrs) }

// NumRows reports the number of row nodes (zero for the bipartite form).
func (g *Graph) NumRows() int { return g.nRows }

// KeepsSingletons reports whether the graph was built with
// Options.KeepSingletons; serving layers use it to decide whether a loaded
// graph matches their configuration before warm-starting from it.
func (g *Graph) KeepsSingletons() bool { return g.keepSingletons }

// NumNodes reports the total node count.
func (g *Graph) NumNodes() int { return len(g.vals) + len(g.attrs) + g.nRows }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// IsValue reports whether node u is a value node.
func (g *Graph) IsValue(u int32) bool { return int(u) < len(g.vals) }

// IsAttr reports whether node u is an attribute node.
func (g *Graph) IsAttr(u int32) bool {
	return int(u) >= len(g.vals) && int(u) < len(g.vals)+len(g.attrs)
}

// Value returns the normalized data value of value node u.
// It panics if u is not a value node.
func (g *Graph) Value(u int32) string {
	if !g.IsValue(u) {
		panic(fmt.Sprintf("bipartite: node %d is not a value node", u))
	}
	return g.names.String(g.vals[u])
}

// AttrID returns the attribute identifier of attribute node u.
// It panics if u is not an attribute node.
func (g *Graph) AttrID(u int32) string {
	if !g.IsAttr(u) {
		panic(fmt.Sprintf("bipartite: node %d is not an attribute node", u))
	}
	return g.attrs[int(u)-len(g.vals)]
}

// ValueNode returns the node id of a normalized value, if present. It
// binary-searches the graph's own sorted values, so it is safe on published
// graphs while the writer keeps interning.
func (g *Graph) ValueNode(value string) (int32, bool) {
	i, ok := slices.BinarySearchFunc(g.vals, value, func(id uint32, v string) int {
		return strings.Compare(g.names.String(id), v)
	})
	return int32(i), ok
}

// AttrNode returns the node id of the i-th attribute (0-based, in the order
// attributes were presented to the builder).
func (g *Graph) AttrNode(i int) int32 { return int32(len(g.vals) + i) }

// Neighbors returns the sorted neighbor list of node u. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// Degree reports the number of neighbors of node u.
func (g *Graph) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Values returns the normalized values of all value nodes, indexed by node
// id and strictly ascending: every builder numbers values in lexicographic
// order. It allocates the slice; Value reads one value.
func (g *Graph) Values() []string {
	vals := make([]string, len(g.vals))
	for u, id := range g.vals {
		vals[u] = g.names.String(id)
	}
	return vals
}

// Options configure graph construction.
type Options struct {
	// KeepSingletons retains value nodes whose total cell count across the
	// lake is one. The paper drops such values during pre-processing (§5):
	// a value occurring once cannot be a homograph. Values occurring twice
	// within a single column are kept (they yield degree-1 value nodes),
	// matching the node/edge counts the paper reports for SB.
	KeepSingletons bool
	// Workers bounds construction parallelism (degree counting and
	// adjacency fill). Zero means GOMAXPROCS.
	// The resulting graph is identical for every worker count.
	Workers int
}

// FromLake builds the DomainNet bipartite graph of a lake.
func FromLake(l *lake.Lake, opts Options) *Graph {
	return FromAttributes(l.Attributes(), opts)
}

// FromAttributes builds the graph from an attribute list sharing one symbol
// table. Counting, filtering and filling run by symbol ID; the retained
// values are numbered in radix order. The CSR phases run sharded across
// opts.Workers, and the graph is bit-identical for every worker count.
func FromAttributes(attrs []lake.Attribute, opts Options) *Graph {
	g, node := universe(attrs, opts)
	g.offsets, g.adj = assemble(len(g.vals), len(attrs), opts.Workers, func(i int, dst []int32) []int32 {
		return appendNodes(dst, attrs[i].IDs(), node)
	})
	g.incremental = true
	return g
}

// universe counts every value's cells across attrs by symbol ID and numbers
// the values passing the singleton filter in sorted order, so value node ids
// are lexicographic. It returns a graph with everything but the CSR arrays,
// and the symbol ID → value node map (-1 when not retained) the fill needs.
func universe(attrs []lake.Attribute, opts Options) (*Graph, []int32) {
	syms := lake.SymbolsOf(attrs)
	occ := make([]int64, syms.Len())
	for i := range attrs {
		for j, id := range attrs[i].IDs() {
			occ[id] += int64(attrs[i].Freqs()[j])
		}
	}
	g := &Graph{attrs: attrIDs(attrs), syms: syms, srcAttrs: attrs, occ: occ, keepSingletons: opts.KeepSingletons}
	minOcc, nKept := minOccurrence(opts), 0
	for _, c := range occ {
		if c > 0 {
			g.nSource++
		}
		if c >= minOcc {
			nKept++
		}
	}
	kept := make([]uint32, 0, nKept)
	for id, c := range occ {
		if c >= minOcc {
			kept = append(kept, uint32(id))
		}
	}
	node := number(syms, kept, len(occ))
	g.vals, g.names = kept, syms.Frozen()
	return g, node
}

// minOccurrence is the total cell count a value needs to get a node.
func minOccurrence(opts Options) int64 {
	if opts.KeepSingletons {
		return 1
	}
	return 2
}

// number sorts the retained symbol IDs by value string, in place, so kept
// becomes the value nodes' IDs, and returns the symbol ID → node map (-1
// when not retained) over nSyms IDs.
func number(syms *lake.Symbols, kept []uint32, nSyms int) []int32 {
	SortByValue(syms, kept)
	node := slices.Repeat([]int32{-1}, nSyms)
	for i, id := range kept {
		node[id] = int32(i)
	}
	return node
}

// SortByValue sorts distinct symbol IDs into byte order of their strings,
// the order of a graph's value nodes (persist numbers a snapshot's symbols
// in it too).
func SortByValue(syms *lake.Symbols, ids []uint32) {
	perm, _ := valueOrder(syms, ids)
	for i, p := range perm {
		perm[i] = ids[p]
	}
	copy(ids, perm)
}

// valueKey is the radix key of a value: its first eight bytes, big-endian
// and zero-padded, a key order that never contradicts string order.
func valueKey(v string) uint64 {
	var prefix [8]byte
	copy(prefix[:], v)
	return binary.BigEndian.Uint64(prefix[:])
}

// valueOrder returns the permutation that puts ids into lexicographic order
// of their strings, and their keys in that order. IDs already in order (a
// symbol table loaded from a snapshot numbers its values in byte order) get
// the identity, checked in one pass that compares strings only where keys
// tie; others get a radix sort on the keys, then a string sort within each
// run of equal keys.
func valueOrder(syms *lake.Symbols, ids []uint32) ([]uint32, []uint64) {
	keys := make([]uint64, len(ids))
	sorted := true
	for i, id := range ids {
		keys[i] = valueKey(syms.String(id))
		sorted = sorted && (i == 0 || keys[i-1] < keys[i] ||
			keys[i-1] == keys[i] && syms.String(ids[i-1]) < syms.String(id))
	}
	if !sorted {
		return engine.RadixOrder(keys, func(a, b uint32) int {
			return strings.Compare(syms.String(ids[a]), syms.String(ids[b]))
		}), keys
	}
	perm := make([]uint32, len(ids))
	for i := range perm {
		perm[i] = uint32(i)
	}
	return perm, keys
}

// assemble builds the CSR arrays of a graph whose nodes nVal+i (i in
// [0, nOwners)) — attributes, then rows — list their value neighbours
// through fill, which appends owner i's value ids to dst and returns it. fill
// runs twice per owner, once to count degrees and once to fill, and must
// emit the same ids both times. Both passes run sharded over owners, each
// owner's degree cell and CSR range belonging to one worker. Two serial
// transposes then order every list without a sort: owners, in order, append
// themselves to their values' lists, then values, in order, rewrite the
// owner lists. The output is identical for every worker count.
func assemble(nVal, nOwners, workers int, fill func(i int, dst []int32) []int32) ([]int64, []int32) {
	n := nVal + nOwners
	offsets := make([]int64, n+1) // owner u's degree in offsets[u+1] until the prefix sum
	engine.Parallel(workers, nOwners, func(_, lo, hi int) {
		var buf []int32
		for i := lo; i < hi; i++ {
			buf = fill(i, buf[:0])
			offsets[nVal+i+1] = int64(len(buf))
		}
	})
	for _, d := range offsets[nVal+1:] {
		offsets[nVal] += d // every edge has one value end: value lists fill [0, total)
	}
	for u := nVal + 1; u <= n; u++ {
		offsets[u] += offsets[u-1]
	}

	total := offsets[nVal]
	adj := make([]int32, 2*total)
	engine.Parallel(workers, nOwners, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u := nVal + i
			fill(i, adj[offsets[u]:offsets[u]:offsets[u+1]])
		}
	})
	// transpose walks nodes [lo, hi) downward (the last list ends at end) and
	// puts each at the back of its neighbours' lists, whose cursors offsets[t]
	// move from the lists' ends to their starts: every list ends up ascending.
	transpose := func(lo, hi int, end int64) {
		for s := hi - 1; s >= lo; s-- {
			for _, t := range adj[offsets[s]:end] {
				offsets[t]--
				adj[offsets[t]] = int32(s)
			}
			end = offsets[s]
		}
	}
	for _, v := range adj[total:] {
		offsets[v]++ // value degrees, prefix-summed below to the lists' ends
	}
	for v := 1; v < nVal; v++ {
		offsets[v] += offsets[v-1]
	}
	transpose(nVal, n, offsets[n])          // owners fill the value lists
	copy(offsets[nVal:n], offsets[nVal+1:]) // owner cursors at the lists' ends
	transpose(0, nVal, total)               // values refill the owner lists
	return offsets, adj
}

// appendNodes appends to dst the value nodes of the symbol IDs ids, skipping
// values the singleton filter dropped (node -1, or IDs past node's end).
func appendNodes(dst []int32, ids []uint32, node []int32) []int32 {
	for _, id := range ids {
		if int(id) < len(node) && node[id] >= 0 {
			dst = append(dst, node[id])
		}
	}
	return dst
}

// attrIDs returns the IDs of attrs, in order.
func attrIDs(attrs []lake.Attribute) []string {
	ids := make([]string, len(attrs))
	for i := range attrs {
		ids[i] = attrs[i].ID
	}
	return ids
}

// ValueNeighbors returns the distinct value nodes that co-occur with value
// node u in at least one attribute — the N(u) of paper §3.2 — excluding u
// itself. The result is sorted. Deduplication uses a value-node bitset
// rather than a hash set: O(NumValues/64) words of scratch, branch-free
// marking, and the sorted output falls out of the ascending bit scan.
func (g *Graph) ValueNeighbors(u int32) []int32 {
	nVal := len(g.vals)
	set := make([]uint64, (nVal+63)/64)
	count := 0
	for _, a := range g.Neighbors(u) {
		for _, w := range g.Neighbors(a) {
			if w == u || int(w) >= nVal {
				continue
			}
			word, bit := w>>6, uint64(1)<<(uint(w)&63)
			if set[word]&bit == 0 {
				set[word] |= bit
				count++
			}
		}
	}
	out := make([]int32, 0, count)
	for wi, word := range set {
		for word != 0 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// Cardinality returns |N(u)|, the number of distinct values co-occurring
// with value node u (paper §3.2). This is the "cardinality of a homograph"
// reported in Table 1.
func (g *Graph) Cardinality(u int32) int { return len(g.ValueNeighbors(u)) }
