package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// TestRoundTripProperty is the fidelity property test: after any random
// add/remove history, persist→load must reproduce a graph bit-identical
// (bipartite.Equal, which also compares occurrence counts) to the in-memory
// one, and the loaded graph must support incremental rebuilds exactly like
// the original — the next update after a warm start touches only the changed
// table.
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

		// Post-restart incremental update: only the new table may be dirty.
		extra := randTable(fmt.Sprintf("extra%d", trial))
		sn.Lake.MustAdd(extra)
		attrs := sn.Lake.Attributes()
		changed := bipartite.Changed(sn.Graph, attrs)
		if len(changed) != len(extra.Columns) {
			t.Errorf("trial %d: %d changed attrs after one add, want %d",
				trial, len(changed), len(extra.Columns))
		}
		inc, _ := bipartite.RebuildDiff(sn.Graph, attrs, opts)
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

	// Graphs without delta state degrade to lake-only snapshots too.
	tri := bipartite.FromLakeWithRows(l, bipartite.Options{})
	sn = saveLoad(t, l, tri)
	if sn.Graph != nil {
		t.Error("tripartite graph should not be persisted")
	}

	// So do graphs over another lake's symbol table, whose IDs the saved
	// lake cannot rank.
	other := bipartite.FromLake(datagen.Figure1Lake(), bipartite.Options{})
	if sn = saveLoad(t, l, other); sn.Graph != nil {
		t.Error("a graph of another lake was persisted")
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

// v2Body builds a format 2 body of one table "t" holding one column "c" of
// cells, with the given symbol section, the attribute's value IDs as the
// codec writes them (each as the number of IDs it skips past the previous
// one), its counts, and an optional graph section.
func v2Body(symbols []string, cells []string, gaps, freqs []uint64, graph []byte) []byte {
	b := binary.AppendUvarint(nil, 2)
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
	if graph == nil {
		return append(b, 0)
	}
	return append(append(b, 1), graph...)
}

// v2Graph builds the graph section of a one-attribute lake whose values are
// the node IDs given (all joined to the attribute), with occ as the
// occurrence list.
func v2Graph(values []uint64, occ []uint64) []byte {
	b := []byte{0} // singleton filter on
	b = binary.AppendUvarint(b, uint64(len(values)))
	for _, v := range values {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, 1)
	b = AppendString(b, "t.c")
	n := len(values) + 1
	b = binary.AppendUvarint(b, uint64(n+1))
	b = binary.AppendUvarint(b, 0)
	for range values {
		b = binary.AppendUvarint(b, 1)
	}
	b = binary.AppendUvarint(b, uint64(len(values)))
	b = binary.AppendUvarint(b, uint64(2*len(values)))
	for range values {
		b = binary.AppendUvarint(b, uint64(len(values)))
	}
	for i := range values {
		b = binary.AppendUvarint(b, uint64(i))
	}
	b = binary.AppendUvarint(b, uint64(len(occ)))
	for _, c := range occ {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

// TestDecodeRejectsCountsBeyondInt32V2 is the format 2 twin of
// TestDecodeRejectsCountsBeyondInt32: the same counts, with the values as
// symbol IDs. Format 2 cannot write a repeated ID, so the merged case's
// second value arrives as an ID beyond the one symbol.
func TestDecodeRejectsCountsBeyondInt32V2(t *testing.T) {
	checkCountCases(t, func(values []string, freqs []uint64) []byte {
		return v2Body([]string{"A"}, values, make([]uint64, len(values)), freqs, nil)
	})
}

// TestDecodeRejectsMalformedV2 covers what format 2 adds: symbol IDs, their
// gaps and the symbol section itself. Each corruption must be an error,
// never a panic; the intact body must decode to the lake it describes. A
// gap counts the IDs skipped, so no gap can repeat an ID or step back: the
// ways a gap goes wrong are leaving the symbol table, or wrapping.
func TestDecodeRejectsMalformedV2(t *testing.T) {
	syms := []string{"PUMA", "JAGUAR"}
	cells := []string{"puma", "jaguar", "jaguar"}
	good := v2Body(syms, cells, []uint64{0, 0}, []uint64{1, 2}, v2Graph([]uint64{1, 0}, []uint64{1, 2}))
	sn, err := decodeBody(good)
	if err != nil {
		t.Fatalf("intact body: %v", err)
	}
	if got := sn.Graph.Values(); sn.Lake.Stats().Cells != 3 || !slices.Equal(got, []string{"JAGUAR", "PUMA"}) {
		t.Fatalf("intact body decoded to %v, values %v", sn.Lake.Stats(), got)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"attribute ID beyond the symbols", v2Body(syms, cells, []uint64{0, 1}, []uint64{1, 2}, nil)},
		{"first attribute ID beyond the symbols", v2Body(syms, cells, []uint64{2}, []uint64{1}, nil)},
		{"gap past the last symbol", v2Body(syms, cells, []uint64{1, 0}, []uint64{1, 2}, nil)},
		{"wrapping gap", v2Body(syms, cells, []uint64{0, math.MaxUint64}, []uint64{1, 2}, nil)},
		{"gap wrapping uint32", v2Body(syms, cells, []uint64{0, 1<<32 - 1}, []uint64{1, 2}, nil)},
		{"repeated symbol", v2Body([]string{"PUMA", "PUMA"}, cells, []uint64{0, 0}, []uint64{1, 2}, nil)},
		{"graph value ID beyond the symbols", v2Body(syms, cells, []uint64{0, 0}, []uint64{1, 2},
			v2Graph([]uint64{2, 0}, []uint64{1, 2}))},
		{"graph value ID wrapping uint32", v2Body(syms, cells, []uint64{0, 0}, []uint64{1, 2},
			v2Graph([]uint64{1 << 32, 0}, []uint64{1, 2}))},
		{"short occurrence list", v2Body(syms, cells, []uint64{0, 0}, []uint64{1, 2},
			v2Graph([]uint64{1, 0}, []uint64{1}))},
		{"long occurrence list", v2Body(syms, cells, []uint64{0, 0}, []uint64{1, 2},
			v2Graph([]uint64{1, 0}, []uint64{1, 2, 3}))},
	} {
		if _, err := decodeBody(tc.body); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
