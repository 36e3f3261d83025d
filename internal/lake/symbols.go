package lake

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
)

// Symbols is a lake's symbol table: it maps every normalized value to a
// dense uint32 ID, assigned in first-appearance order and never reused (a
// lake that shed enough values compacts into a new Symbols instead). IDs
// follow first appearance — table, then column, then row — because the
// lake's ingest interns one batch's values in that order after its workers
// normalize them in parallel, so IDs do not depend on the worker count or
// schedule. It is owned by one writer and not safe for concurrent use:
// published state reads it through a Frozen view (a graph's values) or
// carries its own strings. The one field
// ingest workers read while the writer waits is seed, which they hash with.
// The index is open-addressed over IDs, not a map: 4 bytes a slot at under
// half load against about 50 a map entry, for a table that under churn
// holds up to twice the live values. The strings sit in fixed chunks, so
// growth never re-copies them. A value Add interns is copied; a value an
// ingest batch interns is a substring of its column's string of distinct
// values, which stays pinned until compaction, whose Add clones the live
// values.
type Symbols struct {
	strs  []*[symChunk]string // ID i is at strs[i/symChunk][i%symChunk]
	n     int                 // IDs issued
	index []uint32            // linear probing; ID+1 per slot, 0 when empty
	seed  maphash.Seed
}

const symChunk = 4096 // strings per chunk of a Symbols

// NewSymbols returns an empty symbol table (a zero Symbols is unusable).
func NewSymbols() *Symbols { return &Symbols{seed: maphash.MakeSeed(), index: make([]uint32, 64)} }

// AdoptSymbols returns a symbol table of n values that gives the i-th string
// next returns the ID i, keeping the strings themselves rather than copies.
// The index is sized up front, so adopting never rehashes. A repeated string
// is an error.
func AdoptSymbols(n int, next func() string) (*Symbols, error) {
	s := &Symbols{seed: maphash.MakeSeed(), index: make([]uint32, max(64, 2<<bits.Len(uint(n))))}
	for range n {
		v := next()
		i := slot(s, v, uint32(maphash.String(s.seed, v)))
		if s.index[i] != 0 {
			return nil, fmt.Errorf("lake: symbol %q repeated", v)
		}
		s.insert(i, v)
	}
	return s, nil
}

// Frozen returns a read-only view of the IDs issued so far: their strings,
// which s's later interning leaves in place, so other goroutines may read
// the view while s's writer goes on. It supports only String and Len: it
// has no index, so a Lookup or Add on it panics. A nil s gives nil.
func (s *Symbols) Frozen() *Symbols {
	if s == nil {
		return nil
	}
	return &Symbols{strs: s.strs, n: s.n}
}

// Len reports the number of interned values, which bounds every ID.
func (s *Symbols) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// String returns the normalized value of id.
func (s *Symbols) String(id uint32) string { return s.strs[id/symChunk][id%symChunk] }

// Lookup reports the ID of an interned normalized value, without allocating.
func (s *Symbols) Lookup(b []byte) (uint32, bool) {
	id := s.index[slot(s, b, uint32(maphash.Bytes(s.seed, b)))]
	return id - 1, id != 0
}

// Add interns v verbatim — it must already be normalized — and returns its
// ID. Adding a value that is already present allocates nothing; a new one is
// copied, so the table never pins the memory v was sliced from.
func (s *Symbols) Add(v string) uint32 {
	i := slot(s, v, uint32(maphash.String(s.seed, v)))
	if s.index[i] == 0 {
		return s.insert(i, strings.Clone(v))
	}
	return s.index[i] - 1
}

// slot finds the slot holding v's ID, or the empty one where v belongs; h is
// the low half of v's hash under s.seed.
func slot[T string | []byte](s *Symbols, v T, h uint32) int {
	mask := len(s.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if id := s.index[i]; id == 0 || s.String(id-1) == string(v) {
			return i
		}
	}
}

// insert gives v, absent from the table, the next ID at the empty slot i.
func (s *Symbols) insert(i int, v string) uint32 {
	if s.n%symChunk == 0 {
		s.strs = append(s.strs, new([symChunk]string))
	}
	s.strs[s.n/symChunk][s.n%symChunk] = v
	s.n++
	s.index[i] = uint32(s.n)
	if 2*s.n > len(s.index) {
		s.rehash(2 * len(s.index))
	}
	return uint32(s.n - 1)
}

// reserve sizes the index for m more values, so interning them never
// rehashes.
func (s *Symbols) reserve(m int) {
	if need := 2 * (s.n + m); need > len(s.index) {
		s.rehash(1 << bits.Len(uint(need-1)))
	}
}

// rehash re-slots every ID into an index of size slots, a power of two.
func (s *Symbols) rehash(size int) {
	s.index = make([]uint32, size)
	for id := range uint32(s.n) {
		v := s.String(id)
		s.index[slot(s, v, uint32(maphash.String(s.seed, v)))] = id + 1
	}
}

// internColumn interns one column's distinct values in order, as an ingest
// worker left them (see column): vals holds them back to back, and cells[k]
// is the k-th one's hash<<32 | end offset in vals, which internColumn
// replaces with its ID<<32 | freqs[k]. A new value is interned as a
// substring of vals.
func (s *Symbols) internColumn(vals string, cells []uint64, freqs []int32) {
	start := 0
	for k, c := range cells {
		v := vals[start:uint32(c)]
		start = int(uint32(c))
		i := slot(s, v, uint32(c>>32))
		id := s.index[i]
		if id == 0 {
			id = s.insert(i, v) + 1
		}
		cells[k] = uint64(id-1)<<32 | uint64(uint32(freqs[k]))
	}
}

// Attribute is a single column of a single table, identified lake-wide by ID
// (of the form "table.column"). It holds the column's distinct values as
// ascending IDs in the Symbols it reaches through itself (empty cells
// dropped), with each value's cell count: the paper's pre-processing drops
// values occurring once lake-wide (§5), a frequency criterion, since a value
// repeated within one column is kept. Attributes come from a Lake, or — for
// hand-built lists — from NewAttributes; graph builders require every
// attribute of a list to share one symbol table.
type Attribute struct {
	ID     string
	Table  string
	Column string

	syms  *Symbols
	ids   []uint32
	freqs []int32
}

// IDs returns the distinct value IDs, ascending; callers must not modify it.
func (a *Attribute) IDs() []uint32 { return a.ids }

// Freqs returns the cell counts, parallel to IDs; callers must not modify it.
func (a *Attribute) Freqs() []int32 { return a.freqs }

// Values returns the normalized strings of the attribute's values, in ID
// order (parallel to IDs and Freqs). It allocates; graph builders use IDs.
func (a *Attribute) Values() []string {
	vals := make([]string, len(a.ids))
	for j, id := range a.ids {
		vals[j] = a.syms.String(id)
	}
	return vals
}

// Cardinality is the number of distinct (normalized, non-empty) values.
func (a *Attribute) Cardinality() int { return len(a.ids) }

// Cells is the number of non-empty cells in the column.
func (a *Attribute) Cells() int {
	n := 0
	for _, f := range a.freqs {
		n += int(f)
	}
	return n
}

// SymbolsOf returns the symbol table shared by attrs (nil when none has a
// value). It panics when attrs mix tables: their IDs are not comparable.
func SymbolsOf(attrs []Attribute) *Symbols {
	var syms *Symbols
	for i := range attrs {
		if s := attrs[i].syms; s != nil && s != syms {
			if syms != nil {
				panic("lake: attributes from different symbol tables")
			}
			syms = s
		}
	}
	return syms
}

// Spec describes a hand-built attribute by its already-normalized values,
// which are interned verbatim. Freqs, when non-nil, is parallel to Values;
// nil counts every value once.
type Spec struct {
	ID, Table, Column string
	Values            []string
	Freqs             []int
}

// NewAttributes interns hand-built specs, in order, into a new Symbols.
func NewAttributes(specs []Spec) []Attribute { return NewSymbols().Attributes(specs) }

// Attributes interns hand-built attribute specs into s, in order, so they
// can be mixed with attributes already built against s. A value repeated
// within a spec has its counts merged.
func (s *Symbols) Attributes(specs []Spec) []Attribute {
	attrs := make([]Attribute, len(specs))
	var pairs []uint64
	for i, sp := range specs {
		pairs = pairs[:0]
		for j, v := range sp.Values {
			n := 1
			if sp.Freqs != nil {
				n = sp.Freqs[j]
			}
			pairs = append(pairs, uint64(s.Add(v))<<32|uint64(n))
		}
		attrs[i] = s.attribute(sp.ID, sp.Table, sp.Column, pairs)
	}
	return attrs
}

// attribute builds an Attribute of s's values from (ID, count) pairs packed
// as ID<<32 | count, which it sorts in place — as integers, not strings.
// Repeated IDs have their counts merged; the IDs and counts are allocated at
// their exact size.
func (s *Symbols) attribute(id, tableName, column string, pairs []uint64) Attribute {
	slices.Sort(pairs)
	n := 0
	for k := range pairs {
		if k == 0 || pairs[k]>>32 != pairs[k-1]>>32 {
			n++
		}
	}
	a := Attribute{ID: id, Table: tableName, Column: column, syms: s,
		ids: make([]uint32, 0, n), freqs: make([]int32, 0, n)}
	for k, p := range pairs {
		if k > 0 && p>>32 == pairs[k-1]>>32 {
			a.freqs[len(a.freqs)-1] += int32(uint32(p))
			continue
		}
		a.ids = append(a.ids, uint32(p>>32))
		a.freqs = append(a.freqs, int32(uint32(p)))
	}
	return a
}
