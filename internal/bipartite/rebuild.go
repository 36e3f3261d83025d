package bipartite

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"domainnet/internal/lake"
)

// rebuildCostRatio prices an update before any work is done. Each value ID
// an attribute lists is one candidate edge. A full build counts the
// candidate edges of every attribute; RebuildDiff re-counts those of the
// attributes that left and of the new and modified ones, finds each by
// value, and streams the previous CSR. It builds from scratch when the
// churned candidate edges number more than 1/rebuildCostRatio of the
// lake's, old and new counted together, so a fallback never follows a
// failed attempt. On SB, replacing whole tables, the two paths cost the
// same near a ratio of 0.43.
const rebuildCostRatio = 3

// modified reports whether two attributes with the same ID differ in content.
// Both must share one symbol table.
func modified(a, b *lake.Attribute) bool {
	return !sameData(a.IDs(), b.IDs()) || !sameData(a.Freqs(), b.Freqs())
}

// sameData reports slice equality, short-circuiting on shared backing arrays.
func sameData[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}

// Diff reports how a rebuilt graph's node universe and adjacency relate to
// the previous build, in exactly the shape engine.Delta consumes. Full marks
// a from-scratch rebuild with no usable node correspondence. Otherwise
// PrevToNew maps every previous node id (values then attributes) to its new
// id or -1 when gone, injectively over survivors, and Dirty lists — in
// ascending order — the new nodes whose adjacency differs from their
// pre-image's (including nodes with no pre-image). Dirtiness is structural:
// an attribute whose cell contents changed but whose retained-value edge set
// did not is clean, and a node whose id shifted under the value remap is
// clean as long as its edges followed the remap.
type Diff struct {
	Full      bool
	PrevToNew []int32
	Dirty     []int32
}

// match pairs a rebuild's attributes with the previous build's by ID.
// Attributes are new (no previous attribute has the ID), modified (one has,
// with other content), kept (same content) or, on the previous side, gone.
type match struct {
	prevOf  []int32 // new attribute → previous attribute with its ID, or -1
	newOf   []int32 // previous attribute → new attribute with its ID, or -1
	changed []bool  // new attribute is new or modified
	// churn counts the value IDs of the gone, modified and new attributes
	// (a modified one on both sides); lake those of both attribute lists.
	churn, lake int
	noop        bool // nothing new, modified or gone
}

// matchAttrs matches attrs against prev's attributes. It fails on a
// duplicate ID, which defeats matching, and when kept attributes changed
// their relative order (lakes append, so they do not), which would break
// the monotone node remap.
func matchAttrs(prev, attrs []lake.Attribute) (match, bool) {
	m := match{newOf: make([]int32, len(prev)), prevOf: make([]int32, len(attrs)), changed: make([]bool, len(attrs))}
	byID := make(map[string]int32, len(prev)+len(attrs))
	for p := range prev {
		if _, dup := byID[prev[p].ID]; dup {
			return m, false
		}
		byID[prev[p].ID] = int32(p)
		m.newOf[p] = -1
		m.lake += len(prev[p].IDs())
	}
	last, nChanged := int32(-1), 0
	for i := range attrs {
		a := &attrs[i]
		m.lake += len(a.IDs())
		p, ok := byID[a.ID]
		switch {
		case ok && (p < 0 || m.newOf[p] >= 0):
			return m, false
		case !ok:
			byID[a.ID] = -1 // a second new attribute with this ID is a duplicate
			m.prevOf[i], m.changed[i] = -1, true
			m.churn += len(a.IDs())
			nChanged++
			continue
		}
		m.prevOf[i], m.newOf[p] = p, int32(i)
		if modified(a, &prev[p]) {
			m.changed[i] = true
			m.churn += len(a.IDs()) + len(prev[p].IDs())
			nChanged++
			continue
		}
		if p <= last {
			return m, false
		}
		last = p
	}
	gone := 0
	for p := range prev {
		if m.newOf[p] < 0 {
			m.churn += len(prev[p].IDs())
			gone++
		}
	}
	m.noop = nChanged == 0 && gone == 0
	return m, true
}

// RebuildDiff builds the graph of attrs from prev, paying for the cells the
// update touched rather than for the lake. The output is bit-identical to
// FromAttributes(attrs, opts): incremental construction is a performance
// choice, never a semantic one.
//
// Attributes are matched to prev's by ID. prev's occurrence counts pass to
// the new graph, which updates them in place for the value IDs of the gone,
// modified and new attributes only; prev loses its rebuild state, so a
// second RebuildDiff from prev builds from scratch. Each touched value
// retained before or after is found among prev's sorted values by its
// valueKey, in value order; a value crossing into the graph is merged into
// the values, and a lake singleton crossing in is given an edge to the one
// kept attribute holding its earlier cell. One streaming pass then writes
// the CSR: a run of untouched values copies its lists through the monotone
// attribute remap, a touched value's list is patched, and every kept
// attribute's list is prev's through the monotone value remap, plus the
// values that crossed in. Nothing sized by the symbol table is copied or
// scanned; only the search for crossing singletons' hosts reads the kept
// attributes' IDs.
//
// RebuildDiff falls back to the full build, before any work, when prev
// cannot support delta surgery (nil, tripartite, differing KeepSingletons,
// another symbol table generation, already rebuilt from, duplicate
// attribute IDs, reordered kept attributes) or when the update's cost in
// candidate edges passes rebuildCostRatio's share of the lake's.
//
// The returned Diff describes what the update touched, so scoring layers can
// carry prior per-node results. It is nil exactly when the update is a no-op
// and prev itself is returned; it has Full set on every path that rebuilt
// from scratch.
func RebuildDiff(prev *Graph, attrs []lake.Attribute, opts Options) (*Graph, *Diff) {
	full := func() (*Graph, *Diff) {
		return FromAttributes(attrs, opts), &Diff{Full: true}
	}
	syms := lake.SymbolsOf(attrs)
	if prev == nil || !prev.incremental || prev.nRows != 0 ||
		prev.keepSingletons != opts.KeepSingletons || prev.syms != syms {
		return full()
	}
	m, ok := matchAttrs(prev.srcAttrs, attrs)
	switch {
	case !ok || m.churn*rebuildCostRatio > m.lake:
		return full()
	case m.noop:
		return prev, nil
	}
	nValPrev, nPrev, nAttr := prev.NumValues(), len(prev.srcAttrs), len(attrs)
	pkeys := prev.keys // a full build's graph has none yet
	if pkeys == nil {
		pkeys = make([]uint64, nValPrev, nValPrev+nValPrev/16+16) // room for values crossing in
		for vo, id := range prev.vals {
			pkeys[vo] = valueKey(syms.String(id))
		}
	}
	stale := func(p int) bool { i := m.newOf[p]; return i < 0 || m.changed[i] }

	// Take prev's counts, grown to the IDs interned since it was built.
	occ := prev.occ
	if n, old := syms.Len(), len(occ); n > old {
		occ = slices.Grow(occ, n-old)[:n]
		clear(occ[old:])
	}
	prev.occ, prev.keys, prev.incremental = nil, nil, false

	// Re-count the touched IDs: subtract the cells of stale previous
	// attributes (gone or modified), then add those of changed ones. tids
	// lists each touched ID once. Until the rebuild ends, the bits of a
	// touched ID's count from tidShift up hold 1 + its index into tids;
	// count and tidOf read the two parts. rest is a touched value's count
	// in between, its cells in kept attributes.
	const tidShift = 40 // far more cells than a lake holds
	count := func(id uint32) int64 { return occ[id] & (1<<tidShift - 1) }
	tidOf := func(id uint32) int { return int(occ[id]>>tidShift) - 1 }
	tids := make([]uint32, 0, m.churn)
	var before []int64
	touch := func(ids []uint32) {
		for _, id := range ids {
			if tidOf(id) < 0 {
				before = append(before, occ[id])
				tids = append(tids, id)
				occ[id] |= int64(len(tids)) << tidShift
			}
		}
	}
	for p := range prev.srcAttrs {
		if stale(p) {
			touch(prev.srcAttrs[p].IDs())
		}
	}
	for i := range attrs {
		if m.changed[i] {
			touch(attrs[i].IDs())
		}
	}
	for p := range prev.srcAttrs {
		if stale(p) {
			pa := &prev.srcAttrs[p]
			for j, id := range pa.IDs() {
				occ[id] -= int64(pa.Freqs()[j])
			}
		}
	}
	rest := make([]int64, len(tids))
	for k, id := range tids {
		rest[k] = count(id)
	}
	for i := range attrs {
		if m.changed[i] {
			for j, id := range attrs[i].IDs() {
				occ[id] += int64(attrs[i].Freqs()[j])
			}
		}
	}

	// Classify the touched values against the filter, and find the ones
	// retained before or after among prev's sorted values: in value order,
	// so each search gallops on from the last. This gives, all ascending,
	// the previous nodes of the values leaving and of the touched values
	// staying, and the values crossing in with the previous node each goes
	// before. tnode ends up holding every touched value's new node, -1 when
	// it has none.
	minOcc := minOccurrence(opts)
	nSource := prev.nSource
	tnode := make([]int32, len(tids))
	var find []uint32  // touched IDs retained before or after
	var findK []int32  // their indices into tids
	var findNow []bool // whether each is retained after
	for k, id := range tids {
		now := count(id)
		switch {
		case before[k] == 0 && now > 0:
			nSource++
		case before[k] > 0 && now == 0:
			nSource--
		}
		tnode[k] = -1
		if before[k] >= minOcc || now >= minOcc {
			find = append(find, id)
			findK = append(findK, int32(k))
			findNow = append(findNow, now >= minOcc)
		}
	}
	var added []crossing
	var dropped, patch []int32
	order, keys := valueOrder(syms, find)
	at := 0
	for i, j := range order {
		k := findK[j]
		was := before[k] >= minOcc
		lo, hi := seek(pkeys, at, keys[i])
		at = lo
		if n := hi - lo; n > 1 || n == 1 && !was {
			v := syms.String(find[j])
			i, _ := slices.BinarySearchFunc(prev.vals[lo:hi], v, func(id uint32, v string) int {
				return strings.Compare(syms.String(id), v)
			})
			at += i
		}
		switch {
		case !was:
			added = append(added, crossing{int32(at), k, keys[i]})
		case !findNow[j]:
			dropped = append(dropped, int32(at))
		default:
			tnode[k] = int32(at)
			patch = append(patch, int32(at))
		}
	}
	nVal := nValPrev - len(dropped) + len(added)
	n := nVal + nAttr

	// New value universe. Without flips the sorted values carry over (they
	// are immutable) and value ids do not move. Otherwise the additions
	// merge into the survivors run by run, and oldToNew, the value part of
	// the Diff's PrevToNew, maps every previous node to its new one (-1 when
	// dropped). Node ids are lexicographic, so the map is monotone. The keys
	// are writer-side, so they merge in place of prev's (mergeKeys).
	diff := &Diff{PrevToNew: make([]int32, nValPrev+nPrev)}
	vals, vkeys := prev.vals, pkeys
	var oldToNew []int32 // nil means identity
	if len(added) > 0 || len(dropped) > 0 {
		vals, vkeys = make([]uint32, nVal), mergeKeys(pkeys, added, dropped)
		oldToNew = diff.PrevToNew[:nValPrev]
		u, a, d := 0, 0, 0
		for vo := 0; vo <= nValPrev; {
			end := nValPrev // the survivors up to the next event are copied
			if a < len(added) {
				end = int(added[a].at)
			}
			if d < len(dropped) {
				end = min(end, int(dropped[d]))
			}
			copy(vals[u:], prev.vals[vo:end])
			for j := range oldToNew[vo:end] {
				oldToNew[vo+j] = int32(u + j)
			}
			u, vo = u+end-vo, end
			switch {
			case a < len(added) && int(added[a].at) == vo:
				k := added[a].k
				vals[u], tnode[k] = tids[k], int32(u)
				u, a = u+1, a+1
			case d < len(dropped) && int(dropped[d]) == vo:
				oldToNew[vo] = -1
				vo, d = vo+1, d+1
			default:
				vo++ // past the end
			}
		}
		for k, vo := range tnode {
			if vo >= 0 && before[k] >= minOcc {
				tnode[k] = oldToNew[vo]
			}
		}
	} else {
		for vo := range nValPrev {
			diff.PrevToNew[vo] = int32(vo)
		}
	}

	// The new edges: all those of changed attributes (every ID among the
	// touched), and those a value crossing into the graph gains to the kept
	// attributes holding its other cells (a lake singleton's one cell, under
	// the filter). The search for these walks the kept attributes' IDs and
	// stops once every such cell is found; that is the last use of tidOf,
	// so the counts are cleaned after it. held lists each edge as (touched
	// value, attribute), packed, in attribute order.
	var left int64
	host := make([]bool, len(tids))
	for k, id := range tids {
		if host[k] = before[k] < minOcc && count(id) >= minOcc && rest[k] > 0; host[k] {
			left += rest[k]
		}
	}
	held := make([]uint64, 0, m.churn)
	for i := range attrs {
		switch {
		case m.changed[i]:
			for _, id := range attrs[i].IDs() {
				held = append(held, uint64(tidOf(id))<<32|uint64(i))
			}
		case left > 0:
			for j, id := range attrs[i].IDs() {
				if k := tidOf(id); k >= 0 && host[k] {
					held = append(held, uint64(k)<<32|uint64(i))
					left -= int64(attrs[i].Freqs()[j])
				}
			}
		}
	}
	for _, id := range tids {
		occ[id] = count(id)
	}
	// Bucketed by value (a counting sort), then read in value order, the
	// edges of retained values give byNode, the new edges seen from their
	// values: (node, attribute node), packed and ascending. Bucketed by
	// attribute, byNode gives each attribute's new nodes, ascending, as
	// news[newAt[i]:newAt[i+1]]: a changed attribute's whole list, or the
	// nodes a kept one gains.
	heldAt := make([]int32, len(tids)+1)
	for _, x := range held {
		heldAt[x>>32+1]++
	}
	for k := range tids {
		heldAt[k+1] += heldAt[k]
	}
	attrOf := make([]int32, len(held))
	fill := slices.Clone(heldAt[:len(tids)])
	for _, x := range held {
		attrOf[fill[x>>32]] = int32(uint32(x))
		fill[x>>32]++
	}
	byNode := make([]uint64, 0, len(held))
	newAt := make([]int32, nAttr+1)
	for _, j := range order {
		k := findK[j]
		if u := tnode[k]; u >= 0 {
			for _, i := range attrOf[heldAt[k]:heldAt[k+1]] {
				byNode = append(byNode, uint64(u)<<32|uint64(nVal+int(i)))
				newAt[i+1]++
			}
		}
	}
	for i := range nAttr {
		newAt[i+1] += newAt[i]
	}
	news := make([]int32, len(byNode))
	fill = slices.Clone(newAt[:nAttr])
	for _, x := range byNode {
		i := int(uint32(x)) - nVal
		news[fill[i]] = int32(x >> 32)
		fill[i]++
	}
	span := func(i int) []int32 { return news[newAt[i]:newAt[i+1]] }

	// dirty marks the structurally dirty nodes. A kept attribute that loses
	// a dropped value or gains a crossing one is dirty, with the gained
	// value; the other marks come from comparing spans below.
	dirty := make([]uint64, (n+63)/64)
	mark := func(u int32) { dirty[u>>6] |= 1 << (u & 63) }
	marked := func(u int32) bool { return dirty[u>>6]&(1<<(u&63)) != 0 }
	lost := 0
	for _, vo := range dropped {
		for _, a := range prev.Neighbors(vo) {
			if i := m.newOf[int(a)-nValPrev]; i >= 0 && !m.changed[i] {
				mark(int32(nVal) + i)
				lost++
			}
		}
	}
	for i := range attrs {
		if !m.changed[i] && newAt[i] < newAt[i+1] {
			mark(int32(nVal + i))
			for _, u := range span(i) {
				mark(u)
			}
		}
	}

	// The kept attributes' nodes in the new numbering (-1 for stale ones),
	// and the edge count.
	edges := prev.NumEdges() - lost + len(news)
	attrNode := make([]int32, nPrev)
	for p := range attrNode {
		attrNode[p] = -1
		if stale(p) {
			edges -= prev.Degree(int32(nValPrev + p))
		} else {
			attrNode[p] = int32(nVal) + m.newOf[p]
		}
	}

	// One streaming pass writes the CSR. Value lists go in previous-node
	// order, event by event: a run of untouched survivors is one gather of
	// its previous lists through attrNode and one shift of their offsets; a
	// touched survivor's list drops the edges of stale attributes and merges
	// in its new ones; a value crossing in lists only new ones. Attribute
	// lists follow: a changed one is its span, a kept one its previous list
	// through the value remap, plus the values it gains.
	offsets := make([]int64, n+1)
	adj := make([]int32, 2*edges)
	pos, e, u, patched := 0, 0, 0, 0
stream:
	for vo, a, d, q := 0, 0, 0, 0; ; {
		end := nValPrev
		if a < len(added) {
			end = int(added[a].at)
		}
		if d < len(dropped) {
			end = min(end, int(dropped[d]))
		}
		if q < len(patch) {
			end = min(end, int(patch[q]))
		}
		src := prev.adj[prev.offsets[vo]:prev.offsets[end]]
		dst := adj[pos : pos+len(src)]
		for j, x := range src {
			dst[j] = attrNode[int(x)-nValPrev]
		}
		shift := int64(pos) - prev.offsets[vo]
		dsto := offsets[u+1 : u+1+end-vo]
		for j, o := range prev.offsets[vo+1 : end+1] {
			dsto[j] = o + shift
		}
		pos, u, vo = pos+len(src), u+end-vo, end
		var old []int32
		switch {
		case a < len(added) && int(added[a].at) == vo:
			a++
		case vo == nValPrev:
			break stream
		case d < len(dropped) && int(dropped[d]) == vo:
			vo, d = vo+1, d+1
			continue
		default:
			old = prev.Neighbors(int32(vo))
			vo, q = vo+1, q+1
			patched++
		}
		lo := e
		for e < len(byNode) && byNode[e]>>32 == uint64(u) {
			e++
		}
		add := byNode[lo:e]
		for _, x := range old {
			na := attrNode[int(x)-nValPrev]
			if na < 0 {
				continue
			}
			for ; len(add) > 0 && int32(uint32(add[0])) < na; add = add[1:] {
				adj[pos] = int32(uint32(add[0]))
				pos++
			}
			adj[pos] = na
			pos++
		}
		for _, x := range add {
			adj[pos] = int32(uint32(x))
			pos++
		}
		u++
		offsets[u] = int64(pos)
	}
	for i := range attrs {
		if m.changed[i] {
			pos += copy(adj[pos:], span(i))
			offsets[nVal+i+1] = int64(pos)
			patched++
			continue
		}
		switch old := prev.Neighbors(int32(nValPrev) + m.prevOf[i]); {
		case oldToNew == nil:
			pos += copy(adj[pos:], old)
		case !marked(int32(nVal + i)): // no value dropped or gained
			dst := adj[pos : pos+len(old)]
			for j, vo := range old {
				dst[j] = oldToNew[vo]
			}
			pos += len(old)
		default:
			patched++
			gain := span(i)
			for _, vo := range old {
				w := oldToNew[vo]
				if w < 0 {
					continue
				}
				for ; len(gain) > 0 && gain[0] < w; gain = gain[1:] {
					adj[pos] = gain[0]
					pos++
				}
				adj[pos] = w
				pos++
			}
			pos += copy(adj[pos:], gain)
		}
		offsets[nVal+i+1] = int64(pos)
	}
	if pos != len(adj) {
		panic("bipartite: RebuildDiff miscounted the edges")
	}
	next := &Graph{
		vals:           vals,
		names:          syms.Frozen(),
		attrs:          attrIDs(attrs),
		offsets:        offsets,
		adj:            adj,
		syms:           syms,
		srcAttrs:       attrs,
		occ:            occ,
		nSource:        nSource,
		keys:           vkeys,
		keepSingletons: opts.KeepSingletons,
		incremental:    true,
		touched:        len(tids),
		patched:        patched,
	}

	// The structural diff. Modified attributes keep their node identity
	// (matched by ID). A changed attribute's span is compared with its
	// pre-image's under the monotone value remap: a mismatch dirties the
	// attribute and exactly the values gaining or losing the edge. A new
	// attribute is dirty with all its values, and a gone one dirties the
	// values it leaves.
	for p, i := range m.newOf {
		diff.PrevToNew[nValPrev+p] = -1
		if i >= 0 {
			diff.PrevToNew[nValPrev+p] = int32(nVal) + i
		}
	}
	for i := range attrs {
		if !m.changed[i] {
			continue
		}
		span := span(i)
		a := int32(nVal + i)
		p := m.prevOf[i]
		if p < 0 {
			mark(a)
			for _, u := range span {
				mark(u)
			}
			continue
		}
		old := prev.Neighbors(int32(nValPrev) + p)
		oi, ni := 0, 0
		for oi < len(old) || ni < len(span) {
			ov := int32(-1)
			if oi < len(old) {
				if ov = diff.PrevToNew[old[oi]]; ov < 0 {
					oi++ // edge to a dropped value
					mark(a)
					continue
				}
			}
			switch {
			case ni >= len(span) || (oi < len(old) && ov < span[ni]):
				mark(ov) // edge removed
				mark(a)
				oi++
			case oi >= len(old) || ov > span[ni]:
				mark(span[ni]) // edge added
				mark(a)
				ni++
			default:
				oi++
				ni++
			}
		}
	}
	for p, i := range m.newOf {
		if i >= 0 {
			continue
		}
		for _, vo := range prev.Neighbors(int32(nValPrev + p)) {
			if w := diff.PrevToNew[vo]; w >= 0 {
				mark(w)
			}
		}
	}
	for w, word := range dirty {
		for ; word != 0; word &= word - 1 {
			diff.Dirty = append(diff.Dirty, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return next, diff
}

// crossing is a value crossing into the graph: its index into the touched
// IDs, its key, and the previous value node it goes before.
type crossing struct {
	at, k int32
	key   uint64
}

// mergeKeys turns keys, the keys of a graph's values, into those of its
// rebuild's: it drops the keys at the ascending previous nodes dropped and
// puts each crossing's key before its previous node at (before a dropped
// one there). It works in place, compacting from the front and then
// spreading from the back, and grows the array only when it lacks room.
func mergeKeys(keys []uint64, added []crossing, dropped []int32) []uint64 {
	if len(dropped) > 0 {
		w := int(dropped[0])
		for d, vo := range dropped {
			end := len(keys)
			if d+1 < len(dropped) {
				end = int(dropped[d+1])
			}
			w += copy(keys[w:], keys[vo+1:end])
		}
		keys = keys[:w]
	}
	end, d := len(keys), len(dropped)
	keys = slices.Grow(keys, len(added))[:len(keys)+len(added)]
	for a := len(added) - 1; a >= 0; a-- {
		at := int(added[a].at)
		for d > 0 && int(dropped[d-1]) >= at {
			d--
		}
		at -= d // its place among the survivors
		copy(keys[at+a+1:], keys[at:end])
		keys[at+a] = added[a].key
		end = at
	}
	return keys
}

// seek returns the run [lo, hi) of the ascending keys equal to key, at or
// after from, where every key below from is below key. A value known to be
// present is the one value of a run of one; a value known to be absent goes
// before an empty run; otherwise strings settle its place in the run.
func seek(keys []uint64, from int, key uint64) (lo, hi int) {
	lo = gallop(keys, from, key)
	for hi = lo; hi < len(keys) && keys[hi] == key && hi-lo < 2; hi++ {
	}
	if hi-lo == 2 { // a longer run
		hi = len(keys)
		if key < math.MaxUint64 {
			hi = gallop(keys, lo, key+1)
		}
	}
	return lo, hi
}

// gallop returns the first index i ≥ lo with s[i] ≥ x, where every s[j]
// below lo is under x. It probes lo, lo+1, lo+3, lo+7, … and then binary-
// searches the last gap, so a run of ascending queries over s costs about
// the logarithm of each gap rather than of len(s).
func gallop[E cmp.Ordered](s []E, lo int, x E) int {
	for end := min(lo+16, len(s)); lo < end; lo++ { // dense queries land close
		if s[lo] >= x {
			return lo
		}
	}
	hi, step := lo, 1
	for hi < len(s) && s[hi] < x {
		lo, hi, step = hi+1, hi+step, step*2
	}
	i, _ := slices.BinarySearch(s[lo:min(hi, len(s))], x)
	return lo + i
}

// Equal reports structural equality: same node universe, same CSR layout.
// Two graphs built from the same attributes — whether from scratch or
// incrementally — must compare Equal; tests rely on this. When both graphs
// carry delta state the occurrence counts must agree too, value by value
// (the graphs may number values in different symbol tables), so count drift
// in the incremental path cannot hide behind an identical topology. It reads
// both graphs' symbol tables, so it is writer-side only.
func (g *Graph) Equal(o *Graph) bool {
	if !(len(g.vals) == len(o.vals) && slices.Equal(g.attrs, o.attrs) &&
		g.nRows == o.nRows && slices.Equal(g.offsets, o.offsets) &&
		slices.Equal(g.adj, o.adj)) {
		return false
	}
	for u := range int32(len(g.vals)) {
		if g.Value(u) != o.Value(u) {
			return false
		}
	}
	if !g.incremental || !o.incremental {
		return true
	}
	if g.nSource != o.nSource {
		return false
	}
	for id, c := range g.occ {
		oid, ok := o.syms.Lookup([]byte(g.syms.String(uint32(id))))
		if c > 0 && (!ok || int(oid) >= len(o.occ) || o.occ[oid] != c) {
			return false
		}
	}
	return true
}
