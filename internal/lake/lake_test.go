package lake

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"domainnet/internal/table"
)

// Intern is the per-cell path ingest replaced, kept as its test reference:
// it normalizes a raw cell as ingest does and interns the result, with ok
// false for a missing cell. Interning a value already present allocates
// nothing.
func (s *Symbols) Intern(raw string) (id uint32, ok bool) {
	var buf [64]byte
	b := table.AppendNormalized(buf[:0], raw)
	if table.IsMissing(b) {
		return 0, false
	}
	if id, ok := s.Lookup(b); ok {
		return id, true
	}
	return s.Add(string(b)), true
}

// ReferenceAttributes is Attributes through the per-cell loop ingest
// replaced: the writer interns every cell of each uncached table, in table,
// column, row order, and merges each column's (ID, 1) pairs.
// TestParallelIngestMatchesSequential holds ingest to it.
func (l *Lake) ReferenceAttributes() []Attribute {
	if l.attrsOK {
		return l.attrs
	}
	var pairs []uint64
	for i, t := range l.tables {
		if l.tableAttrs[i] != nil {
			continue
		}
		attrs := make([]Attribute, 0, len(t.Columns))
		for ci := range t.Columns {
			col := &t.Columns[ci]
			pairs = pairs[:0]
			for _, raw := range col.Values {
				if id, ok := l.syms.Intern(raw); ok {
					pairs = append(pairs, uint64(id)<<32|1)
				}
			}
			if len(pairs) > 0 {
				attrs = append(attrs, l.syms.attribute(table.AttributeID(t.Name, ci, col.Name), t.Name, col.Name, pairs))
			}
		}
		l.retain(attrs)
		l.tableAttrs[i] = attrs
	}
	attrs := make([]Attribute, 0, len(l.attrs))
	for _, as := range l.tableAttrs {
		attrs = append(attrs, as...)
	}
	l.attrs, l.attrsOK = attrs, true
	return attrs
}

func twoTableLake(t *testing.T) *Lake {
	t.Helper()
	l := New("test")
	l.MustAdd(table.New("t1").
		AddColumn("animal", "Panda", "panda ", "Jaguar").
		AddColumn("zoo", "Memphis", "Atlanta", "San Diego"))
	l.MustAdd(table.New("t2").
		AddColumn("make", "Jaguar", "Fiat", ""))
	return l
}

func TestAttributesNormalizeAndDedup(t *testing.T) {
	l := twoTableLake(t)
	attrs := l.Attributes()
	if len(attrs) != 3 {
		t.Fatalf("attrs = %d, want 3", len(attrs))
	}
	a := attrs[0]
	if a.ID != "t1.animal" {
		t.Errorf("ID = %q", a.ID)
	}
	// Values come in ID order, which is first-appearance order.
	if want := []string{"PANDA", "JAGUAR"}; !reflect.DeepEqual(a.Values(), want) {
		t.Errorf("values = %v, want %v ('panda ' normalized and merged)", a.Values(), want)
	}
	// PANDA occurred twice (case/space variants): frequency 2.
	if got := a.Freqs(); !reflect.DeepEqual(got, []int32{2, 1}) {
		t.Errorf("freqs = %v, want [2 1]", got)
	}
	// Empty cell in t2.make dropped.
	if got := attrs[2].Cardinality(); got != 2 {
		t.Errorf("t2.make cardinality = %d, want 2", got)
	}
}

func TestAttributesMemoizedAndInvalidated(t *testing.T) {
	l := twoTableLake(t)
	a1 := l.Attributes()
	a2 := l.Attributes()
	if &a1[0] != &a2[0] {
		t.Error("Attributes should be memoized between calls")
	}
	l.MustAdd(table.New("t3").AddColumn("x", "1"))
	if len(l.Attributes()) != 4 {
		t.Error("Attributes not recomputed after Add")
	}
}

func TestVersionMonotonic(t *testing.T) {
	l := New("test")
	if l.Version() != 0 {
		t.Fatalf("fresh lake version = %d, want 0", l.Version())
	}
	l.MustAdd(table.New("t1").AddColumn("a", "x"))
	l.MustAdd(table.New("t2").AddColumn("a", "y"))
	if l.Version() != 2 {
		t.Fatalf("version after two adds = %d, want 2", l.Version())
	}
	if l.RemoveTable("nope") {
		t.Fatal("removed a missing table")
	}
	if l.Version() != 2 {
		t.Errorf("failed removal bumped version to %d", l.Version())
	}
	if !l.RemoveTable("t1") {
		t.Fatal("t1 not removed")
	}
	if l.Version() != 3 {
		t.Errorf("version after removal = %d, want 3", l.Version())
	}
}

func TestAddRejectsDuplicateName(t *testing.T) {
	l := New("test")
	l.MustAdd(table.New("t1").AddColumn("a", "x"))
	if err := l.Add(table.New("t1").AddColumn("b", "y")); err == nil {
		t.Fatal("duplicate table name should be rejected")
	}
	if l.NumTables() != 1 || l.Version() != 1 {
		t.Errorf("rejected add mutated the lake: tables=%d version=%d", l.NumTables(), l.Version())
	}
	// Removing the name frees it for re-use.
	if !l.RemoveTable("t1") {
		t.Fatal("t1 not removed")
	}
	if err := l.Add(table.New("t1").AddColumn("b", "y")); err != nil {
		t.Fatalf("re-adding a removed name should work: %v", err)
	}
}

func TestPerTableAttributeMemoization(t *testing.T) {
	l := twoTableLake(t)
	before := l.Attributes()
	// Adding a third table must not recompute t1/t2: the stitched slice is
	// new, but the untouched attributes keep their backing arrays.
	l.MustAdd(table.New("t3").AddColumn("x", "1", "2"))
	after := l.Attributes()
	if len(after) != 4 {
		t.Fatalf("attrs = %d, want 4", len(after))
	}
	for i := range before {
		if &before[i].IDs()[0] != &after[i].IDs()[0] {
			t.Errorf("attr %d (%s) was recomputed on an unrelated add", i, before[i].ID)
		}
	}
	// Removing the middle table shifts the stitched view but still reuses
	// the survivors' slices.
	if !l.RemoveTable("t2") {
		t.Fatal("t2 not removed")
	}
	final := l.Attributes()
	if len(final) != 3 {
		t.Fatalf("attrs after removal = %d, want 3", len(final))
	}
	if final[2].ID != "t3.x" || &final[2].IDs()[0] != &after[3].IDs()[0] {
		t.Error("t3 attributes were recomputed by removing t2")
	}
}

func TestAddRejectsInvalidTable(t *testing.T) {
	l := New("test")
	if err := l.Add(table.New("bad")); err == nil {
		t.Error("table without columns should be rejected")
	}
}

func TestStats(t *testing.T) {
	l := twoTableLake(t)
	s := l.Stats()
	if s.Tables != 2 || s.Attributes != 3 {
		t.Errorf("stats = %+v", s)
	}
	// Distinct values: JAGUAR, PANDA, MEMPHIS, ATLANTA, SAN DIEGO, FIAT.
	if s.Values != 6 {
		t.Errorf("values = %d, want 6", s.Values)
	}
	// Cells counts non-empty cells, not distinct values: t1.animal has
	// PANDA twice (3 cells), t1.zoo 3, t2.make 2 (empty cell dropped).
	if s.Cells != 8 {
		t.Errorf("cells = %d, want 8", s.Cells)
	}
}

func TestStatsCellsCountDuplicates(t *testing.T) {
	// Regression: Cells used to sum distinct values and undercount lakes
	// with duplicated cells.
	l := New("dups")
	l.MustAdd(table.New("t").
		AddColumn("c", "x", "x", "x", "y", "").
		AddColumn("d", "x", "y"))
	s := l.Stats()
	if s.Values != 2 {
		t.Errorf("values = %d, want 2", s.Values)
	}
	if s.Cells != 6 { // 4 non-empty in c + 2 in d
		t.Errorf("cells = %d, want 6", s.Cells)
	}
	a := l.Attributes()[0]
	if a.Cells() != 4 {
		t.Errorf("attr cells = %d, want 4", a.Cells())
	}
	// A spec with nil Freqs counts one cell per value.
	bare := NewAttributes([]Spec{{Values: []string{"A", "B"}}})[0]
	if bare.Cells() != 2 {
		t.Errorf("nil-freqs cells = %d, want 2", bare.Cells())
	}
}

func TestRemoveTableReleasesTailSlot(t *testing.T) {
	// Regression: the append-truncation removal left the last *table.Table
	// and its attribute cache reachable in the backing arrays.
	l := twoTableLake(t)
	l.Attributes() // populate per-table caches
	if !l.RemoveTable("t2") {
		t.Fatal("t2 not removed")
	}
	for _, tb := range l.tables[:cap(l.tables)] {
		if tb != nil && tb.Name == "t2" {
			t.Error("a table slot still holds the removed table")
		}
	}
	for _, as := range l.tableAttrs[:cap(l.tableAttrs)] {
		if len(as) > 0 && as[0].Table == "t2" {
			t.Error("an attribute-cache slot still holds the removed table's slice")
		}
	}
}

// TestFrozenSurvivesRemovalAndCompaction freezes a lake, then removes
// tables until the symbol table compacts and adds more: the view must still
// show the tables, attributes and value strings it was frozen with.
func TestFrozenSurvivesRemovalAndCompaction(t *testing.T) {
	l := twoTableLake(t)
	big := make([]string, symbolFloor+10)
	for i := range big {
		big[i] = fmt.Sprintf("V%d", i)
	}
	l.MustAdd(table.New("big").AddColumn("v", big...))
	dump := func(f *Lake) []string {
		var out []string
		for ti, tb := range f.Tables() {
			for _, a := range f.TableAttributes()[ti] {
				for _, id := range a.IDs() {
					out = append(out, tb.Name+"."+a.Column+"="+f.Symbols().String(id))
				}
			}
		}
		return out
	}
	f := l.Frozen()
	want, syms := dump(f), l.Symbols()
	l.RemoveTable("t1")
	l.RemoveTable("big")
	if l.Symbols() == syms {
		t.Fatal("setup: removing the big table did not compact the symbol table")
	}
	l.MustAdd(table.New("t3").AddColumn("x", "Lemur", "Toyota"))
	l.Attributes()
	if got := dump(f); !reflect.DeepEqual(got, want) {
		t.Errorf("frozen view changed under the writer: %d entries, want %d", len(got), len(want))
	}
	if f.Version() != 3 || f.NumTables() != 3 {
		t.Errorf("frozen view at version %d with %d tables, want 3 and 3", f.Version(), f.NumTables())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a lookup on the frozen view's symbols did not panic")
			}
		}()
		f.Symbols().Lookup([]byte("LEMUR"))
	}()
}

// stored returns l's tables' attributes as a snapshot stores them, with a
// copy of the symbol table their IDs index, for Rehydrate.
func stored(t *testing.T, l *Lake) (*Symbols, [][]Stored) {
	t.Helper()
	var attrs [][]Stored
	for _, as := range l.TableAttributes() { // interns the values first
		ss := make([]Stored, len(as))
		for j, a := range as {
			ss[j] = Stored{ID: a.ID, Column: a.Column, IDs: a.IDs(), Freqs: a.Freqs()}
		}
		attrs = append(attrs, ss)
	}
	id := uint32(0)
	syms, err := AdoptSymbols(l.Symbols().Len(), func() string { id++; return l.Symbols().String(id - 1) })
	if err != nil {
		t.Fatal(err)
	}
	return syms, attrs
}

func TestRehydrateRestoresVersion(t *testing.T) {
	src := twoTableLake(t)
	src.RemoveTable("t2") // version 3: two adds + one removal
	syms, attrs := stored(t, src)
	l, err := Rehydrate(src.Name, src.Version(), syms, src.Tables(), attrs)
	if err != nil {
		t.Fatal(err)
	}
	if l.Version() != 3 {
		t.Errorf("version = %d, want 3", l.Version())
	}
	if l.NumTables() != 1 || l.Tables()[0].Name != "t1" {
		t.Errorf("tables = %v", l.Tables())
	}
	two := twoTableLake(t)
	syms, attrs = stored(t, two)
	if _, err := Rehydrate("bad", 1, syms, two.Tables(), attrs); err == nil || !strings.Contains(err.Error(), "below table count") {
		t.Errorf("version below table count: Rehydrate = %v, want it refused", err)
	}
}

func TestSaveLoadDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lake")
	l := twoTableLake(t)
	if err := l.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTables() != 2 {
		t.Fatalf("tables = %d, want 2", back.NumTables())
	}
	// Attribute sets must survive the round trip (order by table name).
	origVals := attrValueSet(l)
	backVals := attrValueSet(back)
	if !reflect.DeepEqual(origVals, backVals) {
		t.Errorf("round trip changed values:\norig %v\nback %v", origVals, backVals)
	}
}

func attrValueSet(l *Lake) map[string][]string {
	out := map[string][]string{}
	for _, a := range l.Attributes() {
		vals := a.Values()
		sort.Strings(vals)
		out[a.ID] = vals
	}
	return out
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(os.TempDir(), "missing-dir-3q9")); err == nil {
		t.Error("missing dir should error")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil {
		t.Error("dir without csv should error")
	}
	// Malformed CSV aborts the load with the file named.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "bad.csv"), []byte(""), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(bad); err == nil {
		t.Error("empty csv file should abort the load")
	}
}

func TestLoadDirSkipsNonCSV(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "t.csv"), []byte("a\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTables() != 1 {
		t.Errorf("tables = %d, want 1", l.NumTables())
	}
}

// TestStatsTrackChurn: Stats, kept as attributes are cached and released,
// equals a count over Attributes after every add and removal of a churn
// that compacts the symbol table, on the lake and on its Frozen view.
func TestStatsTrackChurn(t *testing.T) {
	l, rng := New("churn"), rand.New(rand.NewSource(4))
	var live []string
	for step := range 300 {
		if len(live) > 3 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			l.RemoveTable(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			name := fmt.Sprintf("t%d", step)
			tb := table.New(name)
			for c := range 1 + rng.Intn(3) {
				col := make([]string, 1+rng.Intn(40))
				for r := range col {
					col[r] = fmt.Sprintf("v%d_%d", step, rng.Intn(30)) // mostly fresh: compactions come
					if rng.Intn(8) == 0 {
						col[r] = ""
					}
				}
				tb.AddColumn(fmt.Sprintf("c%d", c), col...)
			}
			l.MustAdd(tb)
			live = append(live, name)
		}
		attrs, cells, values := l.Attributes(), 0, map[uint32]bool{}
		for i := range attrs {
			cells += attrs[i].Cells()
			for _, id := range attrs[i].IDs() {
				values[id] = true
			}
		}
		want := Stats{Tables: len(live), Attributes: len(attrs), Values: len(values), Cells: cells}
		if got := l.Stats(); got != want {
			t.Fatalf("step %d: Stats %+v, counted %+v", step, got, want)
		}
		if got := l.Frozen().Stats(); got != want {
			t.Fatalf("step %d: Frozen Stats %+v, counted %+v", step, got, want)
		}
	}
}

// TestLoadDirNamesFirstFailingFile: with files parsed by workers claiming
// them in any order, a load with several bad files names the first of them
// in directory order.
func TestLoadDirNamesFirstFailingFile(t *testing.T) {
	dir := t.TempDir()
	for i := range 12 {
		body := fmt.Sprintf("c\nv%d\nv%d\n", i, i)
		if i == 5 || i == 9 {
			body = "" // an empty file fails to parse
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("t%02d.csv", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "t05.csv") {
		t.Fatalf("LoadDir error %v, want one naming t05.csv", err)
	}
}
