package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

func saveLoad(t *testing.T, l *lake.Lake, g *bipartite.Graph) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lake.snapshot")
	if err := Save(path, l, g); err != nil {
		t.Fatal(err)
	}
	sn, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func TestRoundTripFigure1(t *testing.T) {
	l := datagen.Figure1Lake()
	g := bipartite.FromLake(l, bipartite.Options{KeepSingletons: true})
	sn := saveLoad(t, l, g)

	if sn.Lake.Name != l.Name || sn.Lake.Version() != l.Version() {
		t.Errorf("lake = %q v%d, want %q v%d", sn.Lake.Name, sn.Lake.Version(), l.Name, l.Version())
	}
	if sn.Lake.Stats() != l.Stats() {
		t.Errorf("stats = %+v, want %+v", sn.Lake.Stats(), l.Stats())
	}
	if sn.Graph == nil || !sn.Graph.Equal(g) {
		t.Fatal("loaded graph differs from the saved one")
	}
	if !sn.Graph.KeepsSingletons() {
		t.Error("KeepSingletons flag lost")
	}
}

// TestUnmarshalOwnsItsInput: every decoded string is a substring of the
// decoder's own copy of its input, so overwriting the input after Unmarshal
// (a caller reusing its read buffer) changes nothing decoded: not the
// tables, the symbols, the attributes' names and value IDs, nor the graph.
func TestUnmarshalOwnsItsInput(t *testing.T) {
	l := datagen.NewSB(1).Lake
	buf := Marshal(l, bipartite.FromLake(l, bipartite.Options{}))
	sn, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		var b strings.Builder
		b.WriteString(lakeDump(sn.Lake))
		syms := sn.Lake.Symbols()
		for id := range syms.Len() {
			fmt.Fprintf(&b, "%q\n", syms.String(uint32(id)))
		}
		for _, a := range sn.Lake.Attributes() {
			fmt.Fprintf(&b, "%s %s %s %v\n", a.ID, a.Table, a.Column, a.IDs())
		}
		fmt.Fprintf(&b, "%q\n", sn.Graph.Values())
		return b.String()
	}
	before := dump()
	if got, want := lakeDump(sn.Lake), lakeDump(l); got != want {
		t.Fatalf("decoded lake:\n%s\nwant:\n%s", got, want)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if dump() != before {
		t.Fatal("overwriting the input after Unmarshal changed the decoded snapshot")
	}
}

// TestRoundTripProperty is the fidelity property test: after any random
// add/remove history, persist→load must reproduce a graph bit-identical
// (bipartite.Equal, which also compares occurrence counts) to the in-memory
// one, and the loaded graph must support incremental rebuilds exactly like
// the original — the next update after a warm start yields the same diff.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"jaguar", "puma", "panda", "fiat", "apple", "kiwi", "lima", "oslo", "x", "y"}
	randTable := func(name string) *table.Table {
		tb := table.New(name)
		for c := 0; c < 1+rng.Intn(3); c++ {
			vals := make([]string, 1+rng.Intn(6))
			for i := range vals {
				vals[i] = vocab[rng.Intn(len(vocab))]
			}
			tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
		}
		return tb
	}

	for trial := 0; trial < 10; trial++ {
		keep := trial%2 == 0
		opts := bipartite.Options{KeepSingletons: keep}
		l := lake.New(fmt.Sprintf("prop%d", trial))
		names := []string{}
		for step := 0; step < 12; step++ {
			if len(names) > 2 && rng.Intn(3) == 0 {
				i := rng.Intn(len(names))
				l.RemoveTable(names[i])
				names = append(names[:i], names[i+1:]...)
			} else {
				name := fmt.Sprintf("t%d_%d", trial, step)
				l.MustAdd(randTable(name))
				names = append(names, name)
			}
		}
		g := bipartite.FromLake(l, opts)
		sn := saveLoad(t, l, g)
		if sn.Graph == nil || !sn.Graph.Equal(g) {
			t.Fatalf("trial %d: loaded graph not bit-identical", trial)
		}

		// Post-restart update: the loaded graph rebuilds exactly as the
		// original does, down to the diff that prices the update.
		extra := randTable(fmt.Sprintf("extra%d", trial))
		l.MustAdd(extra)
		sn.Lake.MustAdd(extra)
		attrs := sn.Lake.Attributes()
		inc, diff := bipartite.RebuildDiff(sn.Graph, attrs, opts)
		if _, want := bipartite.RebuildDiff(g, l.Attributes(), opts); !reflect.DeepEqual(diff, want) {
			t.Errorf("trial %d: rebuild after load diffed %+v, the original %+v", trial, diff, want)
		}
		if scratch := bipartite.FromAttributes(attrs, opts); !inc.Equal(scratch) {
			t.Fatalf("trial %d: warm-start incremental rebuild diverged from scratch", trial)
		}
	}
}

func TestLakeOnlySnapshot(t *testing.T) {
	l := datagen.Figure1Lake()
	sn := saveLoad(t, l, nil)
	if sn.Graph != nil {
		t.Error("lake-only snapshot produced a graph")
	}
	if sn.Lake.NumTables() != l.NumTables() {
		t.Errorf("tables = %d, want %d", sn.Lake.NumTables(), l.NumTables())
	}
}

// TestSaveDirRefusesDecodedLake: a snapshot keeps no cells, so a decoded
// table cannot be written back out as a CSV. SaveDir returns an error naming
// the first table, and writes nothing, instead of CSVs LoadDir would reject.
func TestSaveDirRefusesDecodedLake(t *testing.T) {
	l := datagen.Figure1Lake()
	sn, err := Unmarshal(Marshal(l, nil))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "lake")
	if err := sn.Lake.SaveDir(dir); err == nil || !strings.Contains(err.Error(), `"T1"`) {
		t.Errorf("SaveDir of a decoded lake = %v, want an error naming T1", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a refused SaveDir left %s behind: %v", dir, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	l := datagen.Figure1Lake()
	g := bipartite.FromLake(l, bipartite.Options{})
	path := filepath.Join(t.TempDir(), "lake.snapshot")
	if err := Save(path, l, g); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), buf...)
	flip[len(flip)/2] ^= 0x40
	writeAndExpectError(t, path, flip, "bit flip")
	writeAndExpectError(t, path, buf[:len(buf)-9], "truncation")
	bad := append([]byte(nil), buf...)
	bad[0] = 'X'
	writeAndExpectError(t, path, bad, "wrong magic")
	writeAndExpectError(t, path, []byte{'D'}, "tiny file")

	if _, err := Load(filepath.Join(t.TempDir(), "missing.snapshot")); err == nil {
		t.Error("missing file not reported")
	}
}

func writeAndExpectError(t *testing.T, path string, buf []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Errorf("%s not detected", what)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	// A save over an existing snapshot must leave no temp droppings and the
	// new content in place.
	dir := t.TempDir()
	path := filepath.Join(dir, "lake.snapshot")
	l := datagen.Figure1Lake()
	if err := Save(path, l, nil); err != nil {
		t.Fatal(err)
	}
	l.RemoveTable("T4")
	if err := Save(path, l, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "lake.snapshot" {
		t.Errorf("directory = %v, want just lake.snapshot", entries)
	}
	sn, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Lake.NumTables() != 3 {
		t.Errorf("tables = %d, want 3 (post-removal state)", sn.Lake.NumTables())
	}
}

// TestRoundTripLakeWithoutValues covers the lakes whose graph has no value
// to index: a lake that never had a table, and one whose every table was
// removed. Both must load, and the loaded graph must rebuild incrementally.
func TestRoundTripLakeWithoutValues(t *testing.T) {
	emptied := datagen.Figure1Lake()
	for _, tb := range append([]*table.Table(nil), emptied.Tables()...) {
		emptied.RemoveTable(tb.Name)
	}
	for _, l := range []*lake.Lake{lake.New("e"), emptied} {
		opts := bipartite.Options{}
		g := bipartite.FromLake(l, opts)
		sn, err := Unmarshal(Marshal(l, g))
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if sn.Graph == nil || !sn.Graph.Equal(g) || sn.Lake.Version() != l.Version() {
			t.Fatalf("%s: loaded state differs from the saved one", l.Name)
		}
		sn.Lake.MustAdd(table.New("zoo").AddColumn("animal", "jaguar", "jaguar", "puma"))
		attrs := sn.Lake.Attributes()
		inc, _ := bipartite.RebuildDiff(sn.Graph, attrs, opts)
		if !inc.Equal(bipartite.FromAttributes(attrs, opts)) {
			t.Errorf("%s: rebuild after load diverged from scratch", l.Name)
		}
	}
}

// TestDecodeRejectsCountsBeyondInt32 feeds the format 1 decoder attribute
// cell counts an Attribute cannot hold: one count of 2^31, one of 2^32 (which
// would carry into the packed symbol ID), and a repeated value whose merged
// count overflows. Each must be an error, not a panic or a wrapped count.
func TestDecodeRejectsCountsBeyondInt32(t *testing.T) {
	body := func(values []string, freqs []uint64) []byte {
		b := binary.AppendUvarint(nil, 1)
		b = AppendString(b, "big")
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1)
		b = AppendTable(b, table.New("t").AddColumn("c", values...))
		b = binary.AppendUvarint(b, 1)
		b = AppendString(b, "t.c")
		b = AppendString(b, "c")
		b = binary.AppendUvarint(b, uint64(len(values)))
		for _, v := range values {
			b = AppendString(b, v)
		}
		for _, f := range freqs {
			b = binary.AppendUvarint(b, f)
		}
		return append(b, 0) // no graph section
	}
	checkCountCases(t, body)
}

// countCases are the cell counts both formats must reject.
var countCases = []struct {
	name   string
	values []string
	freqs  []uint64
}{
	{"2^31", []string{"A"}, []uint64{1 << 31}},
	{"2^32", []string{"A"}, []uint64{1 << 32}},
	{"2^64-1", []string{"A"}, []uint64{math.MaxUint64}},
	{"merged", []string{"A", "A"}, []uint64{1 << 30, 1 << 30}},
}

func checkCountCases(t *testing.T, body func(values []string, freqs []uint64) []byte) {
	t.Helper()
	if _, err := decodeBody(body([]string{"A"}, []uint64{math.MaxInt32})); err != nil {
		t.Fatalf("largest representable count rejected: %v", err)
	}
	for _, tc := range countCases {
		if _, err := decodeBody(body(tc.values, tc.freqs)); err == nil {
			t.Errorf("%s: count accepted", tc.name)
		}
	}
}

// lakeBody builds a body in format 2 or 3 of one table "t" holding one
// column "c" of cells, with the given symbol section, the attribute's value
// IDs as the codec writes them (each as the number of IDs it skips past the
// previous one), its counts, and then tail: the graph marker and what
// follows it. A nil tail is a lake-only marker.
func lakeBody(format uint64, symbols []string, cells []string, gaps, freqs []uint64, tail []byte) []byte {
	b := binary.AppendUvarint(nil, format)
	b = AppendString(b, "v2")
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, uint64(len(symbols)))
	for _, s := range symbols {
		b = AppendString(b, s)
	}
	b = binary.AppendUvarint(b, 1)
	b = AppendTable(b, table.New("t").AddColumn("c", cells...))
	b = binary.AppendUvarint(b, 1)
	b = AppendString(b, "t.c")
	b = AppendString(b, "c")
	b = binary.AppendUvarint(b, uint64(len(gaps)))
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
	}
	for _, f := range freqs {
		b = binary.AppendUvarint(b, f)
	}
	if tail == nil {
		return append(b, 0)
	}
	return append(b, tail...)
}

// TestDecodeRejectsCountsBeyondInt32V2 is the format 2 twin of
// TestDecodeRejectsCountsBeyondInt32: the same counts, with the values as
// symbol IDs. Format 2 cannot write a repeated ID, so the merged case's
// second value arrives as an ID beyond the one symbol.
func TestDecodeRejectsCountsBeyondInt32V2(t *testing.T) {
	checkCountCases(t, func(values []string, freqs []uint64) []byte {
		return lakeBody(2, []string{"A"}, values, make([]uint64, len(values)), freqs, nil)
	})
}

// TestDecodeRejectsMalformedV2 covers what formats 2 and 3 add to format 1:
// symbol IDs, their gaps and the symbol section itself, and format 3's end
// at the graph marker. Each corruption must be an error, never a panic; the
// intact bodies must decode to the lake they describe and its graph. A gap
// counts the IDs skipped, so no gap can repeat an ID or step back: the
// ways a gap goes wrong are leaving the symbol table, or wrapping. Format 2
// follows the keep byte with a copy of the graph, which the decoder skips
// unread; format 3 must end at the keep byte, which must be 0 or 1.
func TestDecodeRejectsMalformedV2(t *testing.T) {
	syms := []string{"PUMA", "JAGUAR"}
	cells := []string{"puma", "jaguar", "jaguar"}
	keep := []byte{1, 1} // a graph, kept singletons
	for _, good := range [][]byte{
		lakeBody(2, syms, cells, []uint64{0, 0}, []uint64{1, 2}, append(keep, 0xff, 0x80)),
		lakeBody(3, syms, cells, []uint64{0, 0}, []uint64{1, 2}, keep),
	} {
		sn, err := decodeBody(good)
		if err != nil {
			t.Fatalf("intact format %d body: %v", good[0], err)
		}
		if got := sn.Graph.Values(); sn.Lake.Stats().Cells != 3 || !slices.Equal(got, []string{"JAGUAR", "PUMA"}) {
			t.Fatalf("intact format %d body decoded to %v, values %v", good[0], sn.Lake.Stats(), got)
		}
	}
	type bad struct {
		name string
		body []byte
	}
	var cases []bad
	for _, format := range []uint64{2, 3} {
		for _, tc := range []bad{
			{"attribute ID beyond the symbols", lakeBody(format, syms, cells, []uint64{0, 1}, []uint64{1, 2}, nil)},
			{"first attribute ID beyond the symbols", lakeBody(format, syms, cells, []uint64{2}, []uint64{1}, nil)},
			{"gap past the last symbol", lakeBody(format, syms, cells, []uint64{1, 0}, []uint64{1, 2}, nil)},
			{"wrapping gap", lakeBody(format, syms, cells, []uint64{0, math.MaxUint64}, []uint64{1, 2}, nil)},
			{"gap wrapping uint32", lakeBody(format, syms, cells, []uint64{0, 1<<32 - 1}, []uint64{1, 2}, nil)},
			{"repeated symbol", lakeBody(format, []string{"PUMA", "PUMA"}, cells, []uint64{0, 0}, []uint64{1, 2}, nil)},
			{"no graph marker", lakeBody(format, syms, cells, []uint64{0, 0}, []uint64{1, 2}, []byte{})},
			{"no keep byte", lakeBody(format, syms, cells, []uint64{0, 0}, []uint64{1, 2}, []byte{1})},
		} {
			cases = append(cases, bad{fmt.Sprintf("format %d: %s", format, tc.name), tc.body})
		}
	}
	for _, tc := range []bad{
		{"bytes after the keep byte", append(keep, 0)},
		{"bytes after a lake-only marker", []byte{0, 0}},
		{"keep byte 2", []byte{1, 2}},
		{"graph marker 2", []byte{2, 1}},
	} {
		cases = append(cases, bad{"format 3: " + tc.name, lakeBody(3, syms, cells, []uint64{0, 0}, []uint64{1, 2}, tc.body)})
	}
	for _, tc := range cases {
		if _, err := decodeBody(tc.body); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// lakeBodyV4 builds a format 4 body of one table "t" holding one column "c"
// and its attribute, saved with a graph that keeps singletons: the symbol
// section, the cell-string section (nStrs, which may overstate it, then
// strs), the column's cell references, and the attribute's value ID gaps
// and counts.
func lakeBodyV4(symbols []string, nStrs uint64, strs []string, refs, gaps, freqs []uint64) []byte {
	b := binary.AppendUvarint(nil, 4)
	b = AppendString(b, "v4")
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, uint64(len(symbols)))
	for _, s := range symbols {
		b = AppendString(b, s)
	}
	b = binary.AppendUvarint(b, nStrs)
	for _, s := range strs {
		b = AppendString(b, s)
	}
	b = binary.AppendUvarint(b, 1)
	b = AppendString(b, "t")
	b = binary.AppendUvarint(b, 1)
	b = AppendString(b, "c")
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, r := range refs {
		b = binary.AppendUvarint(b, r)
	}
	b = binary.AppendUvarint(b, 1)
	b = AppendString(b, "t.c")
	b = AppendString(b, "c")
	b = binary.AppendUvarint(b, uint64(len(gaps)))
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
	}
	for _, f := range freqs {
		b = binary.AppendUvarint(b, f)
	}
	return append(b, 1, 1)
}

// TestDecodeRejectsMalformedV4 covers what format 4 adds: symbols that must
// strictly ascend, the cell-string section, and cells as references into
// the two. Each corruption must be an error, never a panic; the intact body
// must decode to the lake it describes, whose table keeps its name and none
// of its cells.
func TestDecodeRejectsMalformedV4(t *testing.T) {
	syms := []string{"JAGUAR", "PUMA"}
	strs := []string{"puma", "jaguar"}
	refs := []uint64{2, 3, 0} // puma, jaguar, JAGUAR
	gaps, freqs := []uint64{0, 0}, []uint64{2, 1}
	sn, err := decodeBody(lakeBodyV4(syms, 2, strs, refs, gaps, freqs))
	if err != nil {
		t.Fatalf("intact body: %v", err)
	}
	if tb := sn.Lake.Tables()[0]; tb.Name != "t" || tb.NumColumns() != 0 {
		t.Errorf("intact body decoded table %q with %d columns, want t with none", tb.Name, tb.NumColumns())
	}
	if got := sn.Graph.Values(); sn.Lake.Stats().Cells != 3 || !slices.Equal(got, []string{"JAGUAR", "PUMA"}) {
		t.Fatalf("intact body decoded to %v, values %v", sn.Lake.Stats(), got)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"symbols out of order", lakeBodyV4([]string{"PUMA", "JAGUAR"}, 2, strs, refs, gaps, freqs)},
		{"repeated symbol", lakeBodyV4([]string{"JAGUAR", "JAGUAR"}, 2, strs, refs, gaps, freqs)},
		{"cell reference at the end of the dictionary", lakeBodyV4(syms, 2, strs, []uint64{2, 3, 4}, gaps, freqs)},
		{"cell reference past the end of the dictionary", lakeBodyV4(syms, 2, strs, []uint64{2, 1 << 40, 0}, gaps, freqs)},
		{"wrapping cell reference", lakeBodyV4(syms, 2, strs, []uint64{math.MaxUint64, 3, 0}, gaps, freqs)},
		{"cell reference into no cell strings", lakeBodyV4(syms, 0, nil, refs, gaps, freqs)},
		{"cell-string count beyond the remaining bytes", lakeBodyV4(syms, 1<<20, strs, refs, gaps, freqs)},
	} {
		if _, err := decodeBody(tc.body); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// lakeBodyV5 builds a format 5 body of the tables named, each holding one
// attribute "c" of the given value ID gaps and counts, saved with a graph
// that keeps singletons, then tail.
func lakeBodyV5(symbols, tables []string, gaps, freqs []uint64, tail ...byte) []byte {
	b := binary.AppendUvarint(nil, 5)
	b = AppendString(b, "v5")
	b = binary.AppendUvarint(b, uint64(len(tables)))
	b = binary.AppendUvarint(b, uint64(len(symbols)))
	for _, s := range symbols {
		b = AppendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(tables)))
	for _, name := range tables {
		b = AppendString(b, name)
		b = binary.AppendUvarint(b, 1)
		b = AppendString(b, name+".c")
		b = AppendString(b, "c")
		b = binary.AppendUvarint(b, uint64(len(gaps)))
		for _, g := range gaps {
			b = binary.AppendUvarint(b, g)
		}
		for _, f := range freqs {
			b = binary.AppendUvarint(b, f)
		}
	}
	return append(append(b, 1, 1), tail...)
}

// TestDecodeRejectsMalformedV5: format 5 holds tables by name and their
// attributes only. The intact body must decode to the lake it describes;
// symbols out of order, an attribute value beyond them, an empty or repeated
// table name and bytes after the keep byte must each be an error.
func TestDecodeRejectsMalformedV5(t *testing.T) {
	syms := []string{"JAGUAR", "PUMA"}
	gaps, freqs := []uint64{0, 0}, []uint64{2, 1}
	sn, err := decodeBody(lakeBodyV5(syms, []string{"t", "u"}, gaps, freqs))
	if err != nil {
		t.Fatalf("intact body: %v", err)
	}
	if got := sn.Graph.Values(); sn.Lake.Stats() != (lake.Stats{Tables: 2, Attributes: 2, Values: 2, Cells: 6}) ||
		!slices.Equal(got, syms) {
		t.Fatalf("intact body decoded to %v, values %v", sn.Lake.Stats(), got)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"symbols out of order", lakeBodyV5([]string{"PUMA", "JAGUAR"}, []string{"t"}, gaps, freqs)},
		{"repeated symbol", lakeBodyV5([]string{"PUMA", "PUMA"}, []string{"t"}, gaps, freqs)},
		{"attribute value beyond the symbols", lakeBodyV5(syms, []string{"t"}, []uint64{0, 1}, freqs)},
		{"empty table name", lakeBodyV5(syms, []string{""}, gaps, freqs)},
		{"repeated table name", lakeBodyV5(syms, []string{"t", "t"}, gaps, freqs)},
		{"bytes after the keep byte", lakeBodyV5(syms, []string{"t"}, gaps, freqs, 0)},
	} {
		if _, err := decodeBody(tc.body); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
