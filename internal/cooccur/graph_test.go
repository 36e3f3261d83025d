// Package cooccur implements the unipartite value co-occurrence graph of
// paper Figure 3a: nodes are data values, and two values are adjacent when
// they share at least one attribute.
//
// The paper rejects this representation for real lakes because its size
// grows quadratically with attribute cardinality (§3.2: a single column of
// 100 values already produces 4,950 edges); DomainNet uses the bipartite
// form instead. The package is test-only: its tests quantify that blow-up
// and cross-check centrality behaviour on small lakes, and no production
// code builds this graph.
package cooccur

import (
	"slices"
	"sort"

	"domainnet/internal/engine"
	"domainnet/internal/lake"
)

// Graph is an undirected CSR graph over value nodes only. It satisfies
// centrality.Graph.
type Graph struct {
	values  []string
	offsets []int64
	adj     []int32
	index   map[string]int32
}

// NumNodes reports the node (distinct value) count.
func (g *Graph) NumNodes() int { return len(g.values) }

// NumEdges reports the undirected edge count.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Neighbors returns the sorted neighbors of node u; the slice aliases
// internal storage.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// Value returns the data value of node u.
func (g *Graph) Value(u int32) string { return g.values[u] }

// Values returns all values indexed by node id; the slice aliases internal
// storage.
func (g *Graph) Values() []string { return g.values }

// ValueNode returns the node id of a normalized value, if present.
func (g *Graph) ValueNode(v string) (int32, bool) {
	id, ok := g.index[v]
	return id, ok
}

// FromLake materializes the co-occurrence graph of a lake. Memory grows with
// the sum of squared attribute cardinalities; callers should check
// EstimateEdges first on anything but small lakes.
func FromLake(l *lake.Lake) *Graph {
	return FromAttributes(l.Attributes())
}

// FromAttributes materializes the co-occurrence graph of an attribute list.
func FromAttributes(attrs []lake.Attribute) *Graph {
	// Node ids in sorted value order, matching bipartite.FromAttributes.
	seen := make(map[string]struct{})
	for i := range attrs {
		for _, v := range attrs[i].Values() {
			seen[v] = struct{}{}
		}
	}
	values := make([]string, 0, len(seen))
	for v := range seen {
		values = append(values, v)
	}
	sort.Strings(values)
	index := make(map[string]int32, len(values))
	for i, v := range values {
		index[v] = int32(i)
	}

	// Distinct undirected edges via a pair set.
	type pair struct{ a, b int32 }
	edges := make(map[pair]struct{})
	for i := range attrs {
		vals := attrs[i].Values()
		ids := make([]int32, len(vals))
		for j, v := range vals {
			ids[j] = index[v]
		}
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				a, b := ids[x], ids[y]
				if a > b {
					a, b = b, a
				}
				edges[pair{a, b}] = struct{}{}
			}
		}
	}

	n := len(values)
	deg := make([]int64, n+1)
	for e := range edges {
		deg[e.a+1]++
		deg[e.b+1]++
	}
	offsets := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]int32, offsets[n])
	next := make([]int64, n)
	copy(next, offsets[:n])
	for e := range edges {
		adj[next[e.a]] = e.b
		next[e.a]++
		adj[next[e.b]] = e.a
		next[e.b]++
	}
	g := &Graph{values: values, offsets: offsets, adj: adj, index: index}
	engine.Parallel(0, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			slices.Sort(adj[offsets[u]:offsets[u+1]])
		}
	})
	return g
}

// EstimateEdges returns the upper bound on co-occurrence edges — the sum of
// C(cardinality, 2) over attributes, before cross-attribute deduplication —
// together with the number of incidence-matrix entries (cells), the space
// comparison of §3.2.
func EstimateEdges(attrs []lake.Attribute) (pairBound, cells int64) {
	for i := range attrs {
		c := int64(attrs[i].Cardinality())
		pairBound += c * (c - 1) / 2
		cells += c
	}
	return pairBound, cells
}
