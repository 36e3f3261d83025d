// Package lake models a data lake: a heterogeneous collection of tables with
// possibly missing, incomplete, or misleading metadata (paper Definition 1).
//
// The lake is the unit DomainNet operates on. It exposes the two views the
// rest of the system needs: a flat iteration over attributes (table columns)
// and per-attribute sets of normalized values.
package lake

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"domainnet/internal/engine"
	"domainnet/internal/table"
)

// Attribute is a single column of a single table, identified lake-wide by ID
// (of the form "table.column").
type Attribute struct {
	ID     string
	Table  string
	Column string
	// Values holds the distinct normalized values of the column, sorted.
	// Empty cells are dropped. Cardinality == len(Values).
	Values []string
	// Freqs, when non-nil, holds the cell count of each value in this
	// column, parallel to Values. The paper's pre-processing removes values
	// that occur only once lake-wide (§5) — a frequency criterion, since a
	// value repeated within a single column is kept — so builders consuming
	// attributes need cell counts, not just distinct values. A nil Freqs
	// means every value counts once.
	Freqs []int
}

// Cardinality is the number of distinct (normalized, non-empty) values.
func (a *Attribute) Cardinality() int { return len(a.Values) }

// Cells is the number of non-empty cells in the column: the sum of Freqs, or
// the distinct-value count when Freqs is nil (every value counting once).
func (a *Attribute) Cells() int {
	if a.Freqs == nil {
		return len(a.Values)
	}
	n := 0
	for _, f := range a.Freqs {
		n += f
	}
	return n
}

// Lake is an in-memory data lake. Lakes are dynamic — tables come and go
// (paper Definition 1) — so every mutation bumps a monotonically increasing
// Version and invalidates only the touched table's attribute cache, keeping
// updates delta-priced. Tables are treated as immutable once added; mutate a
// table by removing and re-adding it. A Lake is not safe for concurrent use;
// callers that serve readers during updates snapshot the derived state
// instead (see internal/serve).
type Lake struct {
	Name string
	// Workers bounds the parallelism of attribute normalization in
	// Attributes(). Zero means GOMAXPROCS. Owners that cap construction
	// parallelism (the serving layer's Config.Workers) set this too.
	Workers int

	tables []*table.Table
	// tableAttrs memoizes each table's Attribute slice, parallel to tables;
	// nil means not yet computed. Untouched tables keep their slices (and
	// the backing arrays of every Attribute's Values/Freqs) across updates,
	// which is what lets bipartite.RebuildDiff detect unchanged attributes by
	// pointer identity.
	tableAttrs [][]Attribute
	names      map[string]struct{} // table names, for duplicate rejection
	version    uint64
	attrs      []Attribute // stitched Attributes() memo
	attrsOK    bool        // attrs reflects the current version
}

// New returns an empty lake with the given name.
func New(name string) *Lake { return &Lake{Name: name} }

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

// Rehydrate reconstructs a lake from persisted state (internal/persist): the
// given tables are added in order and the version counter is restored, so
// derived state cached against the saved version (graph snapshots, rankings)
// stays valid across a process restart. The version must be at least the
// table count, since every Add bumped it once in the original process.
func Rehydrate(name string, version uint64, tables []*table.Table) (*Lake, error) {
	l := New(name)
	for _, t := range tables {
		if err := l.Add(t); err != nil {
			return nil, err
		}
	}
	if version < l.version {
		return nil, fmt.Errorf("lake %q: persisted version %d below table count %d",
			name, version, len(tables))
	}
	l.version = version
	return l, nil
}

// RehydrateWithAttributes is Rehydrate for loaders that persisted the
// normalized per-table attribute slices alongside the raw tables: attrs
// (parallel to tables) seeds the per-table caches Attributes() stitches, so
// a warm start never re-normalizes a cell. A nil entry leaves that table's
// cache empty (it is recomputed on first use); non-nil entries are trusted —
// the persistence layer checksums them — beyond structural sanity checks.
func RehydrateWithAttributes(name string, version uint64, tables []*table.Table, attrs [][]Attribute) (*Lake, error) {
	if len(attrs) != len(tables) {
		return nil, fmt.Errorf("lake %q: %d attribute slices for %d tables", name, len(attrs), len(tables))
	}
	l, err := Rehydrate(name, version, tables)
	if err != nil {
		return nil, err
	}
	for i, as := range attrs {
		if as == nil {
			continue
		}
		for j := range as {
			if as[j].Table != tables[i].Name || len(as[j].Values) == 0 ||
				(as[j].Freqs != nil && len(as[j].Freqs) != len(as[j].Values)) {
				return nil, fmt.Errorf("lake %q: malformed persisted attribute %q", name, as[j].ID)
			}
		}
		l.tableAttrs[i] = as
	}
	return l, nil
}

// TableAttributes returns every table's normalized Attribute slice, parallel
// to Tables(), computing any not yet cached. It exists for the persistence
// layer; the returned slices alias the lake's caches and must not be
// modified.
func (l *Lake) TableAttributes() [][]Attribute {
	l.Attributes()
	return l.tableAttrs
}

// Tables returns the tables in insertion order. The slice is shared; callers
// must not mutate it.
func (l *Lake) Tables() []*table.Table { return l.tables }

// RemoveTable deletes the named table and reports whether it existed. Lakes
// are dynamic (paper Definition 1: updates can turn a homograph into an
// unambiguous value and vice versa, e.g. when the table holding the only
// alternative meaning is removed); removal invalidates the attribute cache
// so a re-built graph reflects the new state.
func (l *Lake) RemoveTable(name string) bool {
	for i, t := range l.tables {
		if t.Name == name {
			// Shift left and zero the vacated tail slot: a plain append
			// truncation keeps the last *table.Table (and its attribute
			// cache, with every value string) reachable through the backing
			// array, pinning removed tables' memory under churn.
			last := len(l.tables) - 1
			copy(l.tables[i:], l.tables[i+1:])
			l.tables[last] = nil
			l.tables = l.tables[:last]
			copy(l.tableAttrs[i:], l.tableAttrs[i+1:])
			l.tableAttrs[last] = nil
			l.tableAttrs = l.tableAttrs[:last]
			delete(l.names, name)
			l.bump()
			return true
		}
	}
	return false
}

// NumTables reports the number of tables in the lake.
func (l *Lake) NumTables() int { return len(l.tables) }

// Attributes returns one Attribute per table column, in deterministic order
// (table insertion order, then column order). Values are normalized,
// de-duplicated and sorted. Per-table slices are memoized, so after an
// update only the new tables' columns are normalized — the stitched result
// reuses the cached slices (and their backing arrays) of every untouched
// table — and the stitched slice itself is memoized until the next version
// bump. Uncached tables are processed in parallel.
func (l *Lake) Attributes() []Attribute {
	if l.attrsOK {
		return l.attrs
	}
	var missing []int
	for i := range l.tables {
		if l.tableAttrs[i] == nil {
			missing = append(missing, i)
		}
	}
	engine.Parallel(l.Workers, len(missing), func(_, lo, hi int) {
		for _, i := range missing[lo:hi] {
			l.tableAttrs[i] = tableAttributes(l.tables[i])
		}
	})
	attrs := make([]Attribute, 0, l.approxAttrCount())
	for i := range l.tables {
		attrs = append(attrs, l.tableAttrs[i]...)
	}
	l.attrs = attrs
	l.attrsOK = true
	return attrs
}

// tableAttributes normalizes one table into its Attribute slice. The result
// is never nil, so a nil cache entry unambiguously means "not yet computed".
func tableAttributes(t *table.Table) []Attribute {
	attrs := make([]Attribute, 0, len(t.Columns))
	for ci := range t.Columns {
		col := &t.Columns[ci]
		counts := make(map[string]int, len(col.Values))
		vals := make([]string, 0, len(col.Values))
		for _, raw := range col.Values {
			v := table.Normalize(raw)
			if table.IsMissing(v) {
				continue
			}
			if counts[v] == 0 {
				vals = append(vals, v)
			}
			counts[v]++
		}
		if len(vals) == 0 {
			continue // column of only empty cells contributes nothing
		}
		sort.Strings(vals)
		freqs := make([]int, len(vals))
		for i, v := range vals {
			freqs[i] = counts[v]
		}
		attrs = append(attrs, Attribute{
			ID:     table.AttributeID(t.Name, ci, col.Name),
			Table:  t.Name,
			Column: col.Name,
			Values: vals,
			Freqs:  freqs,
		})
	}
	return attrs
}

func (l *Lake) approxAttrCount() int {
	n := 0
	for _, t := range l.tables {
		n += len(t.Columns)
	}
	return n
}

// Stats summarizes a lake the way the paper's Table 1 does.
type Stats struct {
	Tables     int // number of tables
	Attributes int // number of columns across all tables
	Values     int // number of distinct normalized values lake-wide
	Cells      int // number of non-empty cells (incidence-matrix entries)
}

// Stats computes summary statistics over the lake. Cells counts every
// non-empty cell (via each attribute's Freqs), not just distinct values — a
// column holding the same value twice contributes two cells.
func (l *Lake) Stats() Stats {
	attrs := l.Attributes()
	values := make(map[string]struct{})
	cells := 0
	for i := range attrs {
		cells += attrs[i].Cells()
		for _, v := range attrs[i].Values {
			values[v] = struct{}{}
		}
	}
	return Stats{
		Tables:     len(l.tables),
		Attributes: len(attrs),
		Values:     len(values),
		Cells:      cells,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("tables=%d attrs=%d values=%d cells=%d", s.Tables, s.Attributes, s.Values, s.Cells)
}

// ValueAttributes returns, for every distinct normalized value, the indices
// (into Attributes()) of the attributes containing it. This is the A(n) set
// of paper Definition 2. Indices are ascending.
func (l *Lake) ValueAttributes() map[string][]int {
	attrs := l.Attributes()
	m := make(map[string][]int)
	for ai := range attrs {
		for _, v := range attrs[ai].Values {
			m[v] = append(m[v], ai)
		}
	}
	return m
}

// LoadDir reads every *.csv file under dir (non-recursively) into a lake
// named after the directory. Files that fail to parse abort the load with an
// error naming the file, because silently skipping tables would change
// experiment ground truth.
func LoadDir(dir string) (*Lake, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := New(filepath.Base(dir))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			continue
		}
		t, err := table.ReadCSVFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("lake: loading %s: %w", e.Name(), err)
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

// SaveDir writes every table of the lake as a CSV file under dir.
func (l *Lake) SaveDir(dir string) error {
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
