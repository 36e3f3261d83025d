package lake

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf8"

	"domainnet/internal/table"
)

// Symbols is a lake's symbol table: it maps every normalized value to a
// dense uint32 ID, assigned in first-appearance order and never reused (a
// lake that shed enough values compacts into a new Symbols instead). It is
// owned by one writer and not safe for concurrent use: published state
// (graphs, rankings) carries its own strings. The index is open-addressed
// over IDs, not a map: 4 bytes a slot at under half load against about 50 a
// map entry, for a table that under churn holds up to twice the live values.
// The strings sit in fixed chunks, so growth never re-copies them.
type Symbols struct {
	strs  []*[symChunk]string // ID i is at strs[i/symChunk][i%symChunk]
	n     int                 // IDs issued
	index []uint32            // linear probing; ID+1 per slot, 0 when empty
	seed  maphash.Seed
	buf   []byte // Intern's normalization scratch
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
		i := slot(s, v, maphash.String(s.seed, v))
		if s.index[i] != 0 {
			return nil, fmt.Errorf("lake: symbol %q repeated", v)
		}
		s.insert(i, v)
	}
	return s, nil
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
	id := s.index[slot(s, b, maphash.Bytes(s.seed, b))]
	return id - 1, id != 0
}

// Add interns v verbatim — it must already be normalized — and returns its
// ID. Adding a value that is already present allocates nothing; a new one is
// copied, so the table never pins the memory v was sliced from.
func (s *Symbols) Add(v string) uint32 {
	i := slot(s, v, maphash.String(s.seed, v))
	if s.index[i] == 0 {
		return s.insert(i, strings.Clone(v))
	}
	return s.index[i] - 1
}

// AddBytes is Add for a byte slice.
func (s *Symbols) AddBytes(b []byte) uint32 {
	i := slot(s, b, maphash.Bytes(s.seed, b))
	if s.index[i] == 0 {
		return s.insert(i, string(b))
	}
	return s.index[i] - 1
}

// slot finds the slot holding v's ID, or the empty one where v belongs.
func slot[T string | []byte](s *Symbols, v T, h uint64) int {
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
		s.rehash()
	}
	return uint32(s.n - 1)
}

// rehash doubles the index and re-slots every ID.
func (s *Symbols) rehash() {
	s.index = make([]uint32, 2*len(s.index))
	for id := range uint32(s.n) {
		v := s.String(id)
		s.index[slot(s, v, maphash.String(s.seed, v))] = id + 1
	}
}

// Intern normalizes a raw cell exactly as table.Normalize does and interns
// the result; ok is false for a missing cell. ASCII cells are upper-cased and
// trimmed in a reused buffer, so re-interning one allocates nothing; other
// input goes through table.Normalize, which owns the Unicode rules.
func (s *Symbols) Intern(raw string) (id uint32, ok bool) {
	b := s.buf[:0]
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c >= utf8.RuneSelf {
			if v := table.Normalize(raw); !table.IsMissing(v) {
				return s.Add(v), true
			}
			return 0, false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	s.buf = b
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	if len(b) == 0 {
		return 0, false
	}
	return s.AddBytes(b), true
}

// asciiSpace reports the ASCII bytes strings.TrimSpace removes.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
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
	b := builder{syms: s}
	return b.specs(specs)
}

// builder turns column value streams into Attributes. It de-duplicates
// through a sparse set indexed by symbol ID rather than a map, and sorts a
// column's (ID, count) pairs as packed integers rather than strings.
type builder struct {
	syms  *Symbols
	at    []int32  // per ID: its slot in cells, valid when that cell holds the ID
	cells []uint64 // id<<32 | count, for the open column
}

// add counts n cells of value id in the open column.
func (b *builder) add(id uint32, n int) {
	if int(id) >= len(b.at) {
		b.at = append(b.at, make([]int32, int(id)+1-len(b.at))...)
	}
	if i := b.at[id]; int(i) < len(b.cells) && uint32(b.cells[i]>>32) == id {
		b.cells[i] += uint64(n)
		return
	}
	b.at[id] = int32(len(b.cells))
	b.cells = append(b.cells, uint64(id)<<32|uint64(n))
}

// end closes the open column as an attribute and opens the next one.
func (b *builder) end(id, tableName, column string) Attribute {
	slices.Sort(b.cells)
	a := Attribute{ID: id, Table: tableName, Column: column, syms: b.syms,
		ids: make([]uint32, len(b.cells)), freqs: make([]int32, len(b.cells))}
	for i, c := range b.cells {
		a.ids[i], a.freqs[i] = uint32(c>>32), int32(uint32(c))
	}
	b.cells = b.cells[:0]
	return a
}

// specs interns specs, in order.
func (b *builder) specs(specs []Spec) []Attribute {
	attrs := make([]Attribute, len(specs))
	for i, sp := range specs {
		for j, v := range sp.Values {
			n := 1
			if sp.Freqs != nil {
				n = sp.Freqs[j]
			}
			b.add(b.syms.Add(v), n)
		}
		attrs[i] = b.end(sp.ID, sp.Table, sp.Column)
	}
	return attrs
}
