package bipartite

import (
	"slices"

	"domainnet/internal/lake"
)

// The incremental rebuild as it was before RebuildDiff stopped copying
// symbol-sized state: it copies the whole occurrence slice, marks touched
// symbol IDs over the whole table, keeps a symbol ID → node map, and
// assembles the whole CSR. It is kept here, its body unchanged but for the
// graph type it reads and builds, as the reference FuzzRebuildDiff holds
// RebuildDiff's Diff to wherever both rebuilds are incremental.

// rebuildMaxChurn caps the attribute churn parentRebuildDiff handles
// incrementally: when more than 1/rebuildMaxChurn of the combined old+new
// attribute count is dirty or removed, it builds from scratch.
const rebuildMaxChurn = 4

// parentGraph is a Graph with the reference's writer state: its own
// occurrence counts and the symbol ID → node map.
type parentGraph struct {
	*Graph
	syms           *lake.Symbols
	srcAttrs       []lake.Attribute
	occ            []int64
	node           []int32
	nSource        int
	keepSingletons bool
	incremental    bool
}

// parentFromAttributes is the full build with the reference's state.
func parentFromAttributes(attrs []lake.Attribute, opts Options) *parentGraph {
	g := FromAttributes(attrs, opts)
	pg := &parentGraph{Graph: g, syms: g.syms, srcAttrs: attrs, occ: slices.Clone(g.occ),
		nSource: g.nSource, keepSingletons: opts.KeepSingletons, incremental: true}
	pg.node = slices.Repeat([]int32{-1}, len(pg.occ))
	for u, v := range g.Values() {
		id, _ := g.syms.Lookup([]byte(v))
		pg.node[id] = int32(u)
	}
	return pg
}

// valueIDs returns the symbol IDs of values, interned in syms.
func valueIDs(syms *lake.Symbols, values []string) []uint32 {
	ids := make([]uint32, len(values))
	for i, v := range values {
		ids[i], _ = syms.Lookup([]byte(v))
	}
	return ids
}

// nodeOf returns the value node of symbol id, or -1 when it is not retained.
func (g *parentGraph) nodeOf(id uint32) int32 {
	if int(id) < len(g.node) {
		return g.node[id]
	}
	return -1
}

// intersects reports whether two ascending ID lists share an element,
// binary-searching the longer list for each element of the shorter.
func intersects(a, b []uint32) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); ok {
			return true
		}
	}
	return false
}

// parentRebuildDiff is the reference incremental rebuild (see the file
// comment).
func parentRebuildDiff(prev *parentGraph, attrs []lake.Attribute, opts Options) (*parentGraph, *Diff) {
	full := func() (*parentGraph, *Diff) {
		return parentFromAttributes(attrs, opts), &Diff{Full: true}
	}
	syms := lake.SymbolsOf(attrs)
	if prev == nil || !prev.incremental || prev.nRows != 0 ||
		prev.keepSingletons != opts.KeepSingletons || prev.syms != syms {
		return full()
	}
	nAttr := len(attrs)
	nPrev := len(prev.srcAttrs)

	// Match attributes by ID. Duplicate IDs (possible when a table repeats a
	// column name) defeat matching, so they force a full build.
	prevByID := make(map[string]int, nPrev)
	for p := range prev.srcAttrs {
		if _, dup := prevByID[prev.srcAttrs[p].ID]; dup {
			return full()
		}
		prevByID[prev.srcAttrs[p].ID] = p
	}
	// Map every attribute to its prev index. dirty marks attrs whose
	// adjacency must be refilled: the new and modified ones here, and below
	// the hosts of values crossing the singleton threshold. prevGone marks
	// prev attributes whose edges and cell counts leave the graph: removed
	// (ID absent from attrs) or superseded by a modified attribute. Survivors
	// must keep their relative order (lakes append, so they do); a reordering
	// would break the monotone id remap and falls back instead.
	dirty := make([]bool, nAttr)
	prevOfNew := make([]int, nAttr)
	prevToNew := make([]int, nPrev)
	prevGone := make([]bool, nPrev)
	for p := range prev.srcAttrs {
		prevGone[p] = true
		prevToNew[p] = -1
	}
	seen := make(map[string]struct{}, nAttr)
	nChanged, last := 0, -1
	for i := range attrs {
		if _, dup := seen[attrs[i].ID]; dup {
			return full()
		}
		seen[attrs[i].ID] = struct{}{}
		prevOfNew[i] = -1
		p, ok := prevByID[attrs[i].ID]
		if !ok || modified(&attrs[i], &prev.srcAttrs[p]) {
			dirty[i] = true
			nChanged++
			continue
		}
		if p <= last {
			return full()
		}
		last = p
		prevOfNew[i] = p
		prevToNew[p] = i
		prevGone[p] = false
	}
	nGone := 0
	for p := range prevGone {
		if prevGone[p] {
			nGone++
		}
	}
	if nChanged == 0 && nGone == 0 {
		return prev, nil // no structural change at all
	}
	if (nChanged+nGone)*rebuildMaxChurn > nAttr+nPrev {
		return full()
	}

	// Delta the occurrence counts: subtract the cells of gone prev
	// attributes, add the cells of changed attributes. Values whose count
	// crosses the retention threshold flip in or out of the graph. IDs
	// interned since prev was built start from zero.
	minOcc := minOccurrence(opts)
	occ := make([]int64, syms.Len())
	copy(occ, prev.occ)
	nSource := prev.nSource
	touched := make([]bool, len(occ))
	for p := range prev.srcAttrs {
		if !prevGone[p] {
			continue
		}
		pa := &prev.srcAttrs[p]
		for j, id := range pa.IDs() {
			if occ[id] -= int64(pa.Freqs()[j]); occ[id] == 0 {
				nSource--
			}
			touched[id] = true
		}
	}
	for i := range attrs {
		if !dirty[i] {
			continue
		}
		na := &attrs[i]
		for j, id := range na.IDs() {
			if occ[id] == 0 {
				nSource++
			}
			occ[id] += int64(na.Freqs()[j])
			touched[id] = true
		}
	}
	var addedIDs []uint32  // values newly crossing the retention threshold, ascending
	var droppedOld []int32 // prev value-node ids leaving the graph
	for id, t := range touched {
		if !t {
			continue
		}
		was := prev.nodeOf(uint32(id))
		now := occ[id] >= minOcc
		switch {
		case now && was < 0:
			addedIDs = append(addedIDs, uint32(id))
		case was >= 0 && !now:
			droppedOld = append(droppedOld, was)
		}
	}

	// Flips dirty the unchanged attributes hosting them. A dropped value's
	// surviving occurrences are read off its prev adjacency; a newly retained
	// value's pre-existing host (its single prior cell, when it had one) is
	// located by binary search over the unchanged attributes' ascending IDs.
	nValPrev := prev.NumValues()
	for _, vo := range droppedOld {
		for _, an := range prev.Neighbors(vo) {
			if ni := prevToNew[int(an)-nValPrev]; ni >= 0 {
				dirty[ni] = true
			}
		}
	}
	if len(addedIDs) > 0 {
		for i := range attrs {
			if !dirty[i] {
				dirty[i] = intersects(attrs[i].IDs(), addedIDs)
			}
		}
	}
	nDirty := 0
	for i := range dirty {
		if dirty[i] {
			nDirty++
		}
	}
	if (nDirty+nGone)*rebuildMaxChurn > nAttr+nPrev {
		return full()
	}

	// New value universe. When no value flipped, the sorted value slice and
	// the symbol-to-node map carry over verbatim (both are immutable);
	// otherwise merge the additions, in value order, into the survivors —
	// id order is lexicographic order, so the remap of surviving ids is
	// monotone.
	oldVals := prev.Values()
	values, node := oldVals, prev.node
	var oldToNew []int32 // nil means identity
	if len(addedIDs) > 0 || len(droppedOld) > 0 {
		SortByValue(syms, addedIDs)
		values = make([]string, 0, len(oldVals)-len(droppedOld)+len(addedIDs))
		oldToNew = make([]int32, len(oldVals))
		for _, vo := range droppedOld {
			oldToNew[vo] = -1
		}
		node = slices.Repeat([]int32{-1}, len(occ))
		ai := 0
		addNext := func() {
			node[addedIDs[ai]] = int32(len(values))
			values = append(values, syms.String(addedIDs[ai]))
			ai++
		}
		for vo, v := range oldVals {
			for ai < len(addedIDs) && syms.String(addedIDs[ai]) < v {
				addNext()
			}
			if oldToNew[vo] < 0 {
				continue
			}
			oldToNew[vo] = int32(len(values))
			values = append(values, v)
		}
		for ai < len(addedIDs) {
			addNext()
		}
		for id, vo := range prev.node {
			if vo >= 0 {
				node[id] = oldToNew[vo]
			}
		}
	}
	nVal := len(values)
	n := nVal + nAttr
	remap := func(vo int32) int32 {
		if oldToNew == nil {
			return vo
		}
		return oldToNew[vo]
	}

	// Dirty attributes map their symbol IDs to nodes; clean ones stream
	// their prev span through the monotone remap (none of their values was
	// dropped, or they would be dirty).
	offsets, adj := assemble(nVal, nAttr, opts.Workers, func(i int, dst []int32) []int32 {
		if dirty[i] {
			return appendNodes(dst, attrs[i].IDs(), node)
		}
		for _, vo := range prev.Neighbors(int32(nValPrev + prevOfNew[i])) {
			dst = append(dst, remap(vo))
		}
		return dst
	})
	g := &parentGraph{
		Graph:          &Graph{vals: valueIDs(syms, values), names: syms.Frozen(), attrs: attrIDs(attrs), offsets: offsets, adj: adj},
		syms:           syms,
		srcAttrs:       attrs,
		occ:            occ,
		node:           node,
		nSource:        nSource,
		keepSingletons: opts.KeepSingletons,
		incremental:    true,
	}

	// Assemble the structural diff. Changed attributes keep their node
	// identity across the rebuild (matched by ID), so extend the survivor map
	// with them before translating both node spaces.
	newOfPrev := make([]int, nPrev)
	copy(newOfPrev, prevToNew)
	for i := range attrs {
		if dirty[i] && prevOfNew[i] < 0 {
			if p, ok := prevByID[attrs[i].ID]; ok {
				newOfPrev[p] = i
			}
		}
	}
	diff := &Diff{PrevToNew: make([]int32, nValPrev+nPrev)}
	for vo := 0; vo < nValPrev; vo++ {
		diff.PrevToNew[vo] = remap(int32(vo))
	}
	for p := 0; p < nPrev; p++ {
		if ni := newOfPrev[p]; ni >= 0 {
			diff.PrevToNew[nValPrev+p] = int32(nVal + ni)
		} else {
			diff.PrevToNew[nValPrev+p] = -1
		}
	}

	// Structural dirtiness is decided span against span: a refilled
	// attribute whose sorted new span equals its sorted previous span under
	// the (monotone, hence order-preserving) value remap kept every edge, so
	// neither it nor its values changed. Mismatches dirty the attribute and
	// exactly the values gaining or losing the edge.
	dirtyNode := make([]bool, n)
	for i := range attrs {
		if !dirty[i] {
			continue
		}
		a := int32(nVal + i)
		span := g.Neighbors(a)
		p := prevOfNew[i]
		if p < 0 {
			if q, ok := prevByID[attrs[i].ID]; ok {
				p = q
			}
		}
		if p < 0 {
			// Brand-new attribute: no pre-image, every edge added.
			dirtyNode[a] = true
			for _, vn := range span {
				dirtyNode[vn] = true
			}
			continue
		}
		old := prev.Neighbors(int32(nValPrev + p))
		oi, ni := 0, 0
		attrDirty := false
		for oi < len(old) || ni < len(span) {
			ov := int32(-1)
			if oi < len(old) {
				ov = remap(old[oi])
				if ov < 0 {
					oi++ // edge to a dropped value: endpoint gone, span shrank
					attrDirty = true
					continue
				}
			}
			switch {
			case ni >= len(span) || (oi < len(old) && ov < span[ni]):
				dirtyNode[ov] = true // edge removed
				attrDirty = true
				oi++
			case oi >= len(old) || ov > span[ni]:
				dirtyNode[span[ni]] = true // edge added
				attrDirty = true
				ni++
			default:
				oi++
				ni++
			}
		}
		if attrDirty {
			dirtyNode[a] = true
		}
	}
	// Attributes that left the graph take every incident edge with them.
	for p := range prev.srcAttrs {
		if newOfPrev[p] >= 0 {
			continue
		}
		for _, vo := range prev.Neighbors(int32(nValPrev + p)) {
			if vn := remap(vo); vn >= 0 {
				dirtyNode[vn] = true
			}
		}
	}
	for u := 0; u < n; u++ {
		if dirtyNode[u] {
			diff.Dirty = append(diff.Dirty, int32(u))
		}
	}
	return g, diff
}
