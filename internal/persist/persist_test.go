package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// TestDecodeRejectsCountsBeyondInt32 feeds the decoder attribute cell counts
// an Attribute cannot hold: one count of 2^31, one of 2^32 (which would
// carry into the packed symbol ID), and a repeated value whose merged count
// overflows. Each must be an error, not a panic or a wrapped count.
func TestDecodeRejectsCountsBeyondInt32(t *testing.T) {
	body := func(values []string, freqs []uint64) []byte {
		b := binary.AppendUvarint(nil, FormatVersion)
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
	if _, err := decodeBody(body([]string{"A"}, []uint64{math.MaxInt32})); err != nil {
		t.Fatalf("largest representable count rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		values []string
		freqs  []uint64
	}{
		{"2^31", []string{"A"}, []uint64{1 << 31}},
		{"2^32", []string{"A"}, []uint64{1 << 32}},
		{"2^64-1", []string{"A"}, []uint64{math.MaxUint64}},
		{"merged", []string{"A", "A"}, []uint64{1 << 30, 1 << 30}},
	} {
		if _, err := decodeBody(body(tc.values, tc.freqs)); err == nil {
			t.Errorf("%s: count accepted", tc.name)
		}
	}
}
