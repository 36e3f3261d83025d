package bipartite

// Exported graph state for persistence (internal/persist). A Graph is CSR
// arrays plus delta-rebuild bookkeeping; State exposes exactly the fields a
// codec must round-trip, without committing the codec to this package's
// unexported layout. srcAttrs is deliberately absent: it aliases the
// attribute list of the lake the graph was built from, and the loader re-wires
// it from the rehydrated lake (lake.Attributes is deterministic), which also
// restores the pointer-identity fast path RebuildDiff relies on.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"domainnet/internal/lake"
)

// State is the persistable form of an incremental bipartite Graph. All
// slices alias the graph's internal storage — treat a State as read-only.
// Occ is indexed by the IDs of Symbols, the symbol table of the source
// attributes; a codec maps IDs to its own numbering on the way out.
type State struct {
	Values         []string
	AttrIDs        []string
	Offsets        []int64
	Adj            []int32
	Occ            []int64
	Symbols        *lake.Symbols
	KeepSingletons bool
}

// Export returns the graph's persistable state, or false when the graph
// cannot warm-start a process: tripartite graphs and hand-assembled graphs
// carry no delta state, so a loader must rebuild from attributes instead.
func (g *Graph) Export() (*State, bool) {
	if !g.incremental || g.nRows != 0 {
		return nil, false
	}
	return &State{
		Values:         g.values,
		AttrIDs:        g.attrs,
		Offsets:        g.offsets,
		Adj:            g.adj,
		Occ:            g.occ,
		Symbols:        g.syms,
		KeepSingletons: g.keepSingletons,
	}, true
}

// KeepsSingletons reports whether the graph was built with
// Options.KeepSingletons; serving layers use it to decide whether a
// persisted graph matches their configuration before warm-starting from it.
func (g *Graph) KeepsSingletons() bool { return g.keepSingletons }

// FromState reconstructs a Graph from persisted state, wiring it to srcAttrs
// — the attribute list of the lake the state was saved from, in the same
// order (the loader obtains it from the rehydrated lake), whose symbol table
// s.Occ and s.Symbols must refer to unless the state holds no value at all.
// The state is validated structurally: attribute count and IDs must match
// srcAttrs, the values must be interned and strictly ascending (as
// Graph.Values promises), the offsets must be a monotone prefix-sum over all
// nodes, and every adjacency entry must be in range. The resulting graph
// supports RebuildDiff exactly like the graph that was exported.
func FromState(s *State, srcAttrs []lake.Attribute) (*Graph, error) {
	nVal, nAttr := len(s.Values), len(s.AttrIDs)
	n := nVal + nAttr
	if len(srcAttrs) != nAttr {
		return nil, fmt.Errorf("bipartite: state has %d attributes, lake has %d", nAttr, len(srcAttrs))
	}
	for i := range srcAttrs {
		if srcAttrs[i].ID != s.AttrIDs[i] {
			return nil, fmt.Errorf("bipartite: attribute %d is %q in state, %q in lake",
				i, s.AttrIDs[i], srcAttrs[i].ID)
		}
	}
	if len(s.Offsets) != n+1 {
		return nil, fmt.Errorf("bipartite: %d offsets for %d nodes", len(s.Offsets), n)
	}
	if s.Offsets[0] != 0 || s.Offsets[n] != int64(len(s.Adj)) {
		return nil, fmt.Errorf("bipartite: offsets span [%d, %d], adjacency has %d entries",
			s.Offsets[0], s.Offsets[n], len(s.Adj))
	}
	for i := 0; i < n; i++ {
		if s.Offsets[i] > s.Offsets[i+1] {
			return nil, fmt.Errorf("bipartite: offsets decrease at node %d", i)
		}
	}
	for _, v := range s.Adj {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("bipartite: adjacency entry %d out of range [0, %d)", v, n)
		}
	}
	nSource := 0
	for _, c := range s.Occ {
		if c > 0 {
			nSource++
		}
	}
	syms, occ := lake.SymbolsOf(srcAttrs), s.Occ
	if syms == nil && nVal == 0 && nSource == 0 {
		occ = nil // a lake without values: there is nothing to index
	} else if s.Symbols != syms || len(s.Occ) > syms.Len() {
		return nil, fmt.Errorf("bipartite: occurrence counts do not index the lake's symbol table")
	}
	node := slices.Repeat([]int32{-1}, syms.Len())
	for i, v := range s.Values {
		if i > 0 && s.Values[i-1] >= v {
			return nil, fmt.Errorf("bipartite: value %d (%q) does not sort after %q", i, v, s.Values[i-1])
		}
		id, ok := syms.Lookup([]byte(v))
		if !ok {
			return nil, fmt.Errorf("bipartite: value %q is in no attribute", v)
		}
		node[id] = int32(i)
	}
	return &Graph{
		values:         s.Values,
		attrs:          s.AttrIDs,
		offsets:        s.Offsets,
		adj:            s.Adj,
		syms:           syms,
		srcAttrs:       srcAttrs,
		occ:            occ,
		node:           node,
		nSource:        nSource,
		keepSingletons: s.KeepSingletons,
		incremental:    true,
	}, nil
}

// fullBuilds counts FromAttributes invocations process-wide. Warm-start
// tests assert it stays flat across a snapshot load — the whole point of
// persisting the graph is never running the full build on restart.
var fullBuilds atomic.Int64

// FullBuilds reports how many full (from-scratch) graph constructions have
// run in this process. It is a test observability hook, not a metric to
// alarm on.
func FullBuilds() int64 { return fullBuilds.Load() }
