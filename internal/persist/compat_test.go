package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// marshalV1 is Marshal in format 1, the reference encoder of the layout
// that writes a value's string wherever the value appears.
func marshalV1(l *lake.Lake, g *bipartite.Graph) []byte {
	buf := appendBodyV1(append([]byte(nil), magic[:]...), l, g)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(magic):]))
}

// appendBodyV1 is the format 1 body encoder, kept as the reference the
// decoder's format 1 path is held to.
func appendBodyV1(b []byte, l *lake.Lake, g *bipartite.Graph) []byte {
	b = binary.AppendUvarint(b, 1)
	b = AppendString(b, l.Name)
	b = binary.AppendUvarint(b, l.Version())

	tables := l.Tables()
	tableAttrs := l.TableAttributes()
	b = binary.AppendUvarint(b, uint64(len(tables)))
	for ti, t := range tables {
		b = AppendTable(b, t)
		attrs := tableAttrs[ti]
		b = binary.AppendUvarint(b, uint64(len(attrs)))
		for ai := range attrs {
			a := &attrs[ai]
			b = AppendString(b, a.ID)
			b = AppendString(b, a.Column)
			b = binary.AppendUvarint(b, uint64(a.Cardinality()))
			for _, id := range a.IDs() {
				b = AppendString(b, l.Symbols().String(id))
			}
			for _, f := range a.Freqs() {
				b = binary.AppendUvarint(b, uint64(f))
			}
		}
	}

	var st *bipartite.State
	if g != nil {
		st, _ = g.Export()
	}
	if st == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	if st.KeepSingletons {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Values)))
	for _, v := range st.Values {
		b = AppendString(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(st.AttrIDs)))
	for _, id := range st.AttrIDs {
		b = AppendString(b, id)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Offsets)))
	prev := int64(0)
	for _, o := range st.Offsets {
		b = binary.AppendUvarint(b, uint64(o-prev))
		prev = o
	}
	b = binary.AppendUvarint(b, uint64(len(st.Adj)))
	for _, v := range st.Adj {
		b = binary.AppendUvarint(b, uint64(v))
	}
	nOcc := 0
	for _, c := range st.Occ {
		if c > 0 {
			nOcc++
		}
	}
	b = binary.AppendUvarint(b, uint64(nOcc))
	for id, c := range st.Occ {
		if c > 0 {
			b = AppendString(b, st.Symbols.String(uint32(id)))
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return b
}

// lakeDump renders what a snapshot must carry of a lake: name, version,
// every table's bytes, and each attribute's values with their counts, sorted
// by value, since two decodes may number the same values differently.
func lakeDump(l *lake.Lake) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s v%d\n", l.Name, l.Version())
	for ti, t := range l.Tables() {
		fmt.Fprintf(&b, "%q\n", AppendTable(nil, t))
		for _, a := range l.TableAttributes()[ti] {
			pairs := make([]string, a.Cardinality())
			for j, v := range a.Values() {
				pairs[j] = fmt.Sprintf("%q=%d", v, a.Freqs()[j])
			}
			slices.Sort(pairs)
			fmt.Fprintf(&b, "%s %s %s %v\n", a.ID, a.Table, a.Column, pairs)
		}
	}
	return b.String()
}

// rankingDump is the full exact-betweenness and degree ranking of g.
func rankingDump(g *bipartite.Graph) string {
	var b strings.Builder
	for _, m := range []domainnet.Measure{domainnet.BetweennessExact, domainnet.DegreeBaseline} {
		for _, s := range domainnet.FromGraph(g, domainnet.Config{Measure: m}).Ranking() {
			fmt.Fprintf(&b, "%s\t%s\t%s\n", m, s.Value, strconv.FormatFloat(s.Score, 'g', -1, 64))
		}
	}
	return b.String()
}

// checkFormatsAgree decodes the state in both formats and requires the same
// lake, Equal graphs and byte-identical full rankings, all matching the
// state that was encoded.
func checkFormatsAgree(t *testing.T, what string, l *lake.Lake, g *bipartite.Graph) {
	t.Helper()
	v1, err := Unmarshal(marshalV1(l, g))
	if err != nil {
		t.Fatalf("%s: format 1: %v", what, err)
	}
	v2, err := Unmarshal(Marshal(l, g))
	if err != nil {
		t.Fatalf("%s: format 2: %v", what, err)
	}
	want := lakeDump(l)
	if got := lakeDump(v1.Lake); got != want {
		t.Fatalf("%s: format 1 lake:\n%s\nwant:\n%s", what, got, want)
	}
	if got := lakeDump(v2.Lake); got != want {
		t.Fatalf("%s: format 2 lake:\n%s\nwant:\n%s", what, got, want)
	}
	if g == nil {
		if v1.Graph != nil || v2.Graph != nil {
			t.Fatalf("%s: a lake-only snapshot decoded with a graph", what)
		}
		return
	}
	if v1.Graph == nil || v2.Graph == nil || !v1.Graph.Equal(g) || !v2.Graph.Equal(g) {
		t.Fatalf("%s: decoded graphs differ from the encoded one", what)
	}
	if r1, r2 := rankingDump(v1.Graph), rankingDump(v2.Graph); r1 != r2 || r2 != rankingDump(g) {
		t.Fatalf("%s: the formats' rankings differ", what)
	}
}

// TestFormatsDecodeAlike holds the format 2 codec to the format 1 reference
// encoder on SB seeds 1-20 with the singleton filter on, and on random churn
// lakes of awkward cells.
func TestFormatsDecodeAlike(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		l := datagen.NewSB(seed).Lake
		checkFormatsAgree(t, fmt.Sprintf("SB seed %d", seed), l, bipartite.FromLake(l, bipartite.Options{}))
	}

	rng := rand.New(rand.NewSource(27))
	cells := []string{"jaguar", "Jaguar", " JAGUAR ", "puma", "PUMA\t", "Ölfass", "ölfass", "日本",
		"straße", "\xff\xfe", "a\xc3", "", "  ", "x", "Y", "apple", "kiwi", "1.05", "0"}
	randTable := func(name string) *table.Table {
		tb := table.New(name)
		for c := 0; c < 1+rng.Intn(3); c++ {
			vals := make([]string, 1+rng.Intn(8))
			for i := range vals {
				vals[i] = cells[rng.Intn(len(cells))]
			}
			tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
		}
		return tb
	}
	for trial := 0; trial < 30; trial++ {
		l := lake.New(fmt.Sprintf("churn%d", trial))
		var names []string
		for step := 0; step < rng.Intn(16); step++ {
			if len(names) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(names))
				l.RemoveTable(names[i])
				names = slices.Delete(names, i, i+1)
				continue
			}
			name := fmt.Sprintf("t%d", step)
			if err := l.Add(randTable(name)); err == nil {
				names = append(names, name)
			}
		}
		for _, keep := range []bool{false, true} {
			what := fmt.Sprintf("churn trial %d keep=%v", trial, keep)
			checkFormatsAgree(t, what, l, bipartite.FromLake(l, bipartite.Options{KeepSingletons: keep}))
		}
		checkFormatsAgree(t, fmt.Sprintf("churn trial %d lake-only", trial), l, nil)
	}
	empty := lake.New("empty")
	checkFormatsAgree(t, "empty lake", empty, bipartite.FromLake(empty, bipartite.Options{}))
	checkFormatsAgree(t, "empty lake-only", empty, nil)
}

// TestMarshalDeterministic: the same state always encodes to the same bytes,
// so checkpoint and bootstrap bytes can be compared and cached by content.
// Format 2 numbers symbols by their rank among the live ones, so a decoded
// snapshot re-encodes to the bytes it came from whatever the lake's removal
// history: fresh, after RemoveTable, and after a symbol-table compaction.
func TestMarshalDeterministic(t *testing.T) {
	l := datagen.NewSB(1).Lake
	check := func(what string) {
		t.Helper()
		g := bipartite.FromLake(l, bipartite.Options{})
		first := Marshal(l, g)
		if !bytes.Equal(Marshal(l, g), first) {
			t.Fatalf("%s: two Marshal calls on one state returned different bytes", what)
		}
		sn, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(Marshal(sn.Lake, sn.Graph), first) {
			t.Errorf("%s: re-encoding a decoded snapshot changed its bytes", what)
		}
	}
	check("fresh")

	l.RemoveTable(l.Tables()[0].Name)
	check("after RemoveTable")

	// Fresh values outnumbering the live ones make the removal compact.
	syms := l.Symbols()
	vals := make([]string, 2*syms.Len()+8192)
	for i := range vals {
		vals[i] = fmt.Sprintf("fresh%d", i)
	}
	l.MustAdd(table.New("bulk").AddColumn("v", vals...))
	l.Attributes()
	l.RemoveTable("bulk")
	if l.Symbols() == syms {
		t.Fatal("removing the bulk table did not compact the symbol table")
	}
	check("after compaction")
}

// TestLoadsParentFormatSnapshot loads a format 1 snapshot written by the
// string-keyed codec that preceded symbol interning: Figure 1 plus a table
// of mixed-case, padded and non-ASCII cells, one table added and removed,
// singleton filter on. Its graph must equal a scratch build of the loaded
// lake, and both must rank exactly as the writing build did
// (testdata/parent-v1.ranking).
func TestLoadsParentFormatSnapshot(t *testing.T) {
	sn, err := Load("testdata/parent-v1.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if sn.Lake.NumTables() != 5 || sn.Lake.Version() != 7 || sn.Graph == nil {
		t.Fatalf("tables=%d version=%d graph=%v, want 5, 7, a graph",
			sn.Lake.NumTables(), sn.Lake.Version(), sn.Graph != nil)
	}
	scratch := bipartite.FromLake(sn.Lake, bipartite.Options{})
	if !sn.Graph.Equal(scratch) {
		t.Fatal("loaded graph differs from a scratch build of the loaded lake")
	}
	want, err := os.ReadFile("testdata/parent-v1.ranking")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*bipartite.Graph{sn.Graph, scratch} {
		var got strings.Builder
		for _, m := range []domainnet.Measure{domainnet.BetweennessExact, domainnet.DegreeBaseline} {
			for _, s := range domainnet.FromGraph(g, domainnet.Config{Measure: m}).Ranking() {
				fmt.Fprintf(&got, "%s\t%s\t%s\n", m, s.Value, strconv.FormatFloat(s.Score, 'g', -1, 64))
			}
		}
		if got.String() != string(want) {
			t.Fatalf("ranking differs from the parent build's:\n%s\nwant:\n%s", got.String(), want)
		}
	}
	// The rehydrated lake keeps working incrementally.
	sn.Lake.RemoveTable("T5")
	next, diff := bipartite.RebuildDiff(sn.Graph, sn.Lake.Attributes(), bipartite.Options{})
	if diff == nil || diff.Full || !next.Equal(bipartite.FromLake(sn.Lake, bipartite.Options{})) {
		t.Error("incremental rebuild after loading the parent snapshot is wrong")
	}
}
