// Package lake models a data lake: a heterogeneous collection of tables with
// possibly missing, incomplete, or misleading metadata (paper Definition 1).
//
// The lake is the unit DomainNet operates on. It exposes the two views the
// rest of the system needs: a flat iteration over attributes (table columns)
// and per-attribute sets of normalized values. Each lake interns every
// normalized value once, in its Symbols, and attributes carry value IDs.
//
// Ingest runs on every core. Workers normalize, hash and de-duplicate the
// new tables' columns, each claiming the next column as it finishes one;
// the writer alone numbers each column's distinct values, in table, column,
// first-appearance order, so a value's ID does not depend on the worker
// count; workers then sort each column into its Attribute.
package lake

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"domainnet/internal/engine"
	"domainnet/internal/table"
)

// Lake is an in-memory data lake. Lakes are dynamic — tables come and go
// (paper Definition 1) — so every mutation bumps a monotonically increasing
// Version and invalidates only the touched table's attribute cache, keeping
// updates delta-priced. Tables are treated as immutable once added; mutate a
// table by removing and re-adding it. A Lake is not safe for concurrent use;
// callers that serve readers during updates hand them a Frozen view instead
// (see internal/serve). For those views to stay valid, the lake never
// rewrites an array it has shared: removal and compaction build new slices.
//
// The symbol table stays bounded under churn: the lake counts the cached
// attributes holding each ID and, once dead IDs outnumber live ones beyond
// symbolFloor, compacts into a new Symbols generation.
type Lake struct {
	Name string

	tables []*table.Table
	// tableAttrs memoizes each table's Attribute slice, parallel to tables;
	// nil means not yet computed. Untouched tables keep their slices (and
	// the backing arrays of every Attribute's IDs and counts) across
	// updates, which is what lets bipartite.RebuildDiff detect unchanged
	// attributes by pointer identity.
	tableAttrs [][]Attribute
	names      map[string]struct{} // table names, for duplicate rejection
	version    uint64
	attrs      []Attribute // stitched Attributes() memo
	attrsOK    bool        // attrs reflects the current version

	syms  *Symbols
	live  []int32 // per ID: the number of cached attributes holding it
	nLive int     // IDs with a nonzero live count
	// nAttrs and cells count the cached attributes and their cells, kept
	// by retain and release so Stats costs O(1).
	nAttrs, cells int
}

// symbolFloor is the dead-ID count below which a lake never compacts its
// symbol table: small lakes are not worth re-numbering.
const symbolFloor = 4096

// New returns an empty lake with the given name.
func New(name string) *Lake {
	return &Lake{Name: name, syms: NewSymbols()}
}

// Symbols returns the lake's current symbol table generation.
func (l *Lake) Symbols() *Symbols { return l.syms }

// Version reports the lake's update counter: zero for a freshly constructed
// lake, incremented by every successful Add and RemoveTable. Derived state
// (graphs, scores, rankings) is cached against this number.
func (l *Lake) Version() uint64 { return l.version }

// bump records a structural change: a new version, and a stale stitched view.
func (l *Lake) bump() {
	l.version++
	l.attrsOK = false
}

// Add appends a table to the lake. The table is validated; structurally
// unusable tables are rejected so that downstream stages can assume every
// attribute has at least one value. Duplicate table names are rejected too:
// they would produce colliding AttributeIDs, and RemoveTable could only ever
// delete the first of the clones.
func (l *Lake) Add(t *table.Table) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("lake %q: %w", l.Name, err)
	}
	return l.add(t)
}

// add appends a table that is named but may hold no cells.
func (l *Lake) add(t *table.Table) error {
	if strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("lake %q: empty table name", l.Name)
	}
	if _, dup := l.names[t.Name]; dup {
		return fmt.Errorf("lake %q: duplicate table %q", l.Name, t.Name)
	}
	if l.names == nil {
		l.names = make(map[string]struct{})
	}
	l.names[t.Name] = struct{}{}
	l.tables = append(l.tables, t)
	l.tableAttrs = append(l.tableAttrs, nil)
	l.bump()
	return nil
}

// MustAdd is Add for programmatically constructed tables known to be valid;
// it panics on error.
func (l *Lake) MustAdd(t *table.Table) {
	if err := l.Add(t); err != nil {
		panic(err)
	}
}

// Stored is one attribute as a snapshot stores it, for Rehydrate: its value
// IDs in the symbol table handed to Rehydrate, with their cell counts
// (parallel). Its table is the one it is handed with.
type Stored struct {
	ID, Column string
	IDs        []uint32
	Freqs      []int32
}

// Rehydrate reconstructs a lake from persisted state (internal/persist): a
// table of each given name is added in order and the version counter is
// restored, so derived state cached against the saved version (graph
// snapshots, rankings) stays valid across a process restart. The version
// must be at least the table count, since every Add bumped it once in the
// original process.
//
// A restored table is its name only, table.New(name): the lake keeps
// attrs, parallel to tables, as each table's normalized attributes, and no
// cells. Names must be non-empty and distinct. The lake takes syms as its
// symbol table. Ascending IDs are adopted as they are; others are sorted,
// and repeats merged. Attributes are trusted — persist checksums them —
// beyond sanity checks: every ID is in syms, and a column's counts are
// positive and sum to at most math.MaxInt32.
func Rehydrate(name string, version uint64, syms *Symbols, tables []string, attrs [][]Stored) (*Lake, error) {
	if len(attrs) != len(tables) {
		return nil, fmt.Errorf("lake %q: %d attribute slices for %d tables", name, len(attrs), len(tables))
	}
	l := New(name)
	l.syms = syms
	for i, tn := range tables {
		if err := l.add(table.New(tn)); err != nil {
			return nil, err
		}
		as := make([]Attribute, len(attrs[i]))
		for j, sa := range attrs[i] {
			valid, ascending := check(sa, syms.Len())
			if !valid {
				return nil, fmt.Errorf("lake %q: malformed persisted attribute %q", name, sa.ID)
			}
			as[j] = Attribute{ID: sa.ID, Table: tn, Column: sa.Column, syms: syms, ids: sa.IDs, freqs: sa.Freqs}
			if !ascending {
				pairs := make([]uint64, len(sa.IDs))
				for k, id := range sa.IDs {
					pairs[k] = uint64(id)<<32 | uint64(sa.Freqs[k])
				}
				as[j] = syms.attribute(sa.ID, tn, sa.Column, pairs)
			}
		}
		l.tableAttrs[i] = as
		l.retain(as)
	}
	if version < l.version {
		return nil, fmt.Errorf("lake %q: persisted version %d below table count %d",
			name, version, len(tables))
	}
	l.version = version
	return l, nil
}

// check reports whether a stored attribute is valid — it has values, each an
// ID below n, and parallel counts that are positive and sum, merged repeats
// included, to at most math.MaxInt32 — and whether its IDs strictly ascend.
func check(sa Stored, n int) (valid, ascending bool) {
	if len(sa.IDs) == 0 || len(sa.Freqs) != len(sa.IDs) {
		return false, false
	}
	cells, ascending := 0, true
	for k, f := range sa.Freqs {
		if int(sa.IDs[k]) >= n || f < 1 || int(f) > math.MaxInt32-cells {
			return false, false
		}
		cells += int(f)
		ascending = ascending && (k == 0 || sa.IDs[k-1] < sa.IDs[k])
	}
	return true, ascending
}

// TableAttributes returns every table's normalized Attribute slice, parallel
// to Tables(), computing any not yet cached. It exists for the persistence
// layer; the returned slices alias the lake's caches and must not be
// modified.
func (l *Lake) TableAttributes() [][]Attribute {
	l.Attributes()
	return l.tableAttrs
}

// Frozen returns a read-only view of the lake's current version — name,
// version, tables, attributes and symbol strings — that l's later mutations
// leave untouched, so other goroutines may read it while l's writer goes on.
// It shares l's arrays, costing O(tables) once l's attributes are computed.
// Its Symbols supports only String and Len: it has no index, so a Lookup or
// Add on it panics.
func (l *Lake) Frozen() *Lake {
	attrs, n := l.Attributes(), len(l.tables)
	return &Lake{Name: l.Name, version: l.version,
		tables: l.tables[:n:n], tableAttrs: l.tableAttrs[:n:n],
		attrs: attrs, attrsOK: true, nLive: l.nLive, nAttrs: l.nAttrs, cells: l.cells,
		syms: l.syms.Frozen()}
}

// Tables returns the tables in insertion order. The slice is shared; callers
// must not mutate it. A lake built by Add holds the tables it was handed; a
// table Rehydrate restored is its name only, with no columns, since a
// snapshot keeps each table's normalized attributes and not its cells.
func (l *Lake) Tables() []*table.Table { return l.tables }

// RemoveTable deletes the named table and reports whether it existed. Lakes
// are dynamic (paper Definition 1: updates can turn a homograph into an
// unambiguous value and vice versa, e.g. when the table holding the only
// alternative meaning is removed); removal invalidates the attribute cache
// so a re-built graph reflects the new state.
func (l *Lake) RemoveTable(name string) bool {
	for i, t := range l.tables {
		if t.Name == name {
			// Build new slices: a Frozen view may share the old arrays, and
			// the lake's own arrays must not keep a removed table reachable.
			gone := l.tableAttrs[i]
			l.tables = slices.Concat(l.tables[:i], l.tables[i+1:])
			l.tableAttrs = slices.Concat(l.tableAttrs[:i], l.tableAttrs[i+1:])
			delete(l.names, name)
			l.bump()
			l.release(gone)
			return true
		}
	}
	return false
}

// Has reports whether the live lake (not a Frozen view) holds the table.
func (l *Lake) Has(name string) bool {
	_, ok := l.names[name]
	return ok
}

// NumTables reports the number of tables in the lake.
func (l *Lake) NumTables() int { return len(l.tables) }

// Attributes returns one Attribute per table column, in deterministic order
// (table insertion order, then column order). Values are normalized,
// interned and de-duplicated; each attribute's IDs ascend. Per-table slices
// are memoized, so after an update only the new tables' cells are
// normalized — the stitched result reuses the cached slices (and their
// backing arrays) of every untouched table — and the stitched slice itself
// is memoized until the next version bump. The new tables are normalized on
// GOMAXPROCS workers, one column at a time (see ingest); the IDs they get
// do not depend on the worker count.
func (l *Lake) Attributes() []Attribute {
	if l.attrsOK {
		return l.attrs
	}
	l.ingest()
	attrs := make([]Attribute, 0, len(l.attrs))
	for _, as := range l.tableAttrs {
		attrs = append(attrs, as...)
	}
	l.attrs = attrs
	l.attrsOK = true
	return attrs
}

// column is one column of an ingest batch on its way to an Attribute. Its
// offsets are 32-bit: a column's distinct values total under 4 GiB.
type column struct {
	t     *table.Table
	ci    int
	vals  string   // the distinct normalized values, back to back
	cells []uint64 // per distinct value: hash<<32 | end in vals, then ID<<32 | count
	freqs []int32  // per distinct value: its cell count
}

// ingest builds the attributes of every table not yet cached, in three
// passes over their columns. Workers normalize, hash and de-duplicate each
// column (normalizer.column), reading nothing of the symbol table but its
// seed. The writer alone then interns each column's distinct values in
// table, column, first-appearance order — the order per-cell interning
// would meet them in, so every value gets the same ID — into an index sized
// once for the batch. Workers last sort each column's (ID, count) pairs into
// its Attribute. A column of only missing cells contributes no attribute;
// every table gets a non-nil slice, so nil still means "not yet computed".
func (l *Lake) ingest() {
	var cols []column
	maxCells, cells := 0, 0
	for ti, t := range l.tables {
		if l.tableAttrs[ti] != nil {
			continue
		}
		for ci := range t.Columns {
			cols = append(cols, column{t: t, ci: ci})
			maxCells = max(maxCells, len(t.Columns[ci].Values))
			cells += len(t.Columns[ci].Values)
		}
	}
	if len(cols) == 0 {
		return
	}
	seed := l.syms.seed
	workers := 1 // a small batch costs less than waking workers for it
	if cells >= inlineCells {
		workers = engine.Opts{}.EffectiveWorkers(len(cols))
	}
	ws := make([]normalizer, workers)
	engine.Each(len(ws), len(cols), func(w, i int) { ws[w].column(seed, &cols[i], maxCells) })

	distinct := 0
	for i := range cols {
		distinct += len(cols[i].cells)
	}
	l.syms.reserve(distinct)
	for i := range cols {
		l.syms.internColumn(cols[i].vals, cols[i].cells, cols[i].freqs)
	}

	attrs := make([]Attribute, len(cols))
	engine.Each(len(ws), len(cols), func(_, i int) {
		if c := &cols[i]; len(c.cells) > 0 {
			name := c.t.Columns[c.ci].Name
			attrs[i] = l.syms.attribute(table.AttributeID(c.t.Name, c.ci, name), c.t.Name, name, c.cells)
		}
	})
	l.retain(attrs)
	for ti, i := 0, 0; i < len(cols); ti++ {
		if l.tableAttrs[ti] != nil {
			continue
		}
		as := make([]Attribute, 0, len(l.tables[ti].Columns))
		for range l.tables[ti].Columns {
			if len(cols[i].cells) > 0 {
				as = append(as, attrs[i])
			}
			i++
		}
		l.tableAttrs[ti] = as
	}
}

// inlineCells is the cell count below which an ingest batch runs on the
// calling goroutine: for a table of a few hundred cells, two rounds of
// goroutine wake-ups and per-worker scratch cost more than a second core
// saves.
const inlineCells = 1024

// normalizer is one ingest worker's scratch, reused across the columns it
// claims; each column's result is copied out at its exact size. A
// normalizer lives on the heap, so column keeps its slices in locals while
// it walks the cells and stores them back once per column: a slice header
// written to the heap on every cell would pay a GC write barrier whenever
// marking runs, as it often does during ingest.
type normalizer struct {
	vals  []byte
	cells []uint64
	freqs []int32
	slots []int32 // open addressing over cells: index+1, 0 when empty
}

// column normalizes c's cells (table.AppendNormalized), drops missing ones
// and merges repeats, keeping first-appearance order and counting each
// distinct value's cells. It hashes with seed, the lake's Symbols seed, so
// the writer slots each value by the hash computed here. maxCells bounds
// every column of the batch, so the probe table is allocated once; the
// value buffer grows to the largest column's cell bytes.
func (w *normalizer) column(seed maphash.Seed, c *column, maxCells int) {
	raw := c.t.Columns[c.ci].Values
	if w.slots == nil {
		w.slots = make([]int32, 1<<bits.Len(uint(2*maxCells)))
		w.cells, w.freqs = make([]uint64, 0, maxCells), make([]int32, 0, maxCells)
	}
	size := 0
	for _, cell := range raw {
		size += len(cell)
	}
	slots := w.slots[:1<<bits.Len(uint(2*len(raw)))] // under half full
	clear(slots)
	mask := len(slots) - 1
	vals, cells, freqs := slices.Grow(w.vals[:0], size), w.cells[:0], w.freqs[:0]
	for _, cell := range raw {
		start := len(vals)
		vals = table.AppendNormalized(vals, cell)
		v := vals[start:]
		if table.IsMissing(v) {
			continue
		}
		h := uint32(maphash.Bytes(seed, v))
		for i := int(h) & mask; ; i = (i + 1) & mask {
			k := int(slots[i]) - 1
			if k < 0 {
				slots[i] = int32(len(cells) + 1)
				cells = append(cells, uint64(h)<<32|uint64(len(vals)))
				freqs = append(freqs, 1)
				break
			}
			if x := cells[k]; uint32(x>>32) == h && string(vals[end(cells, k-1):uint32(x)]) == string(v) {
				freqs[k]++
				vals = vals[:start]
				break
			}
		}
	}
	w.vals, w.cells, w.freqs = vals, cells, freqs
	c.vals, c.cells, c.freqs = string(vals), slices.Clone(cells), slices.Clone(freqs)
}

// end is the end offset in vals of the k-th distinct value of cells; -1
// gives 0.
func end(cells []uint64, k int) uint32 {
	if k < 0 {
		return 0
	}
	return uint32(cells[k])
}

// retain counts attrs' values as live, and attrs and their cells in Stats.
// A column of only missing cells has no IDs and is no attribute.
func (l *Lake) retain(attrs []Attribute) {
	if n := l.syms.Len(); n > len(l.live) {
		l.live = append(l.live, make([]int32, n-len(l.live))...)
	}
	for i := range attrs {
		if len(attrs[i].ids) > 0 {
			l.nAttrs++
			l.cells += attrs[i].Cells()
		}
		for _, id := range attrs[i].ids {
			if l.live[id] == 0 {
				l.nLive++
			}
			l.live[id]++
		}
	}
}

// release uncounts the attributes of a removed table and compacts the symbol
// table once its dead IDs outnumber the live ones beyond symbolFloor.
func (l *Lake) release(attrs []Attribute) {
	for i := range attrs {
		l.nAttrs--
		l.cells -= attrs[i].Cells()
		for _, id := range attrs[i].ids {
			if l.live[id]--; l.live[id] == 0 {
				l.nLive--
			}
		}
	}
	if dead := l.syms.Len() - l.nLive; dead > l.nLive && dead > symbolFloor {
		l.compact()
	}
}

// compact moves the lake to a new symbol generation of the live values, with
// the live IDs' ranks as IDs so every order carries over. Cached attributes
// are re-issued into a new slice, not rewritten: published graphs and Frozen
// views may alias the old arrays.
func (l *Lake) compact() {
	syms := NewSymbols()
	remap := make([]uint32, l.syms.Len())
	live := make([]int32, 0, l.nLive)
	for id, n := range l.live {
		if n > 0 {
			remap[id] = syms.Add(l.syms.String(uint32(id)))
			live = append(live, n)
		}
	}
	tableAttrs := make([][]Attribute, len(l.tableAttrs))
	for ti, attrs := range l.tableAttrs {
		if attrs == nil {
			continue
		}
		re := make([]Attribute, len(attrs))
		for i, a := range attrs {
			a.syms, a.ids = syms, make([]uint32, len(a.ids))
			for j, id := range attrs[i].ids {
				a.ids[j] = remap[id]
			}
			re[i] = a
		}
		tableAttrs[ti] = re
	}
	l.tableAttrs, l.syms, l.live = tableAttrs, syms, live
	l.attrsOK = false
}

// Stats summarizes a lake the way the paper's Table 1 does.
type Stats struct {
	Tables     int // number of tables
	Attributes int // number of columns across all tables
	Values     int // number of distinct normalized values lake-wide
	Cells      int // number of non-empty cells (incidence-matrix entries)
}

// Stats computes summary statistics over the lake. Cells counts every
// non-empty cell (via each attribute's frequencies), not just distinct
// values — a column holding the same value twice contributes two cells.
// Once the lake's attributes are computed it costs O(1): the counts are
// kept as attributes are cached and released.
func (l *Lake) Stats() Stats {
	l.Attributes()
	return Stats{
		Tables:     len(l.tables),
		Attributes: l.nAttrs,
		Values:     l.nLive,
		Cells:      l.cells,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("tables=%d attrs=%d values=%d cells=%d", s.Tables, s.Attributes, s.Values, s.Cells)
}

// LoadDir reads every *.csv file under dir (non-recursively) into a lake
// named after the directory. Files are parsed in parallel, each worker
// claiming the next file as it finishes one, and added in directory order.
// Files that fail to parse abort the load with an error naming the first
// such file in directory order, because silently skipping tables would
// change experiment ground truth.
func LoadDir(dir string) (*Lake, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			names = append(names, e.Name())
		}
	}
	tables := make([]*table.Table, len(names))
	errs := make([]error, len(names))
	engine.Each(0, len(names), func(_, i int) {
		tables[i], errs[i] = table.ReadCSVFile(filepath.Join(dir, names[i]))
	})
	l := New(filepath.Base(dir))
	for i, t := range tables {
		if errs[i] != nil {
			return nil, fmt.Errorf("lake: loading %s: %w", names[i], errs[i])
		}
		if err := l.Add(t); err != nil {
			return nil, err
		}
	}
	if l.NumTables() == 0 {
		return nil, fmt.Errorf("lake: no csv tables found in %s", dir)
	}
	return l, nil
}

// SaveDir writes every table of the lake as a CSV file under dir. A table
// LoadDir would reject, such as one Rehydrate restored without its cells,
// fails the save before anything is written.
func (l *Lake) SaveDir(dir string) error {
	for _, t := range l.tables {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("lake %q: %w", l.Name, err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range l.tables {
		if err := t.WriteCSVFile(filepath.Join(dir, t.Name+".csv")); err != nil {
			return err
		}
	}
	return nil
}
