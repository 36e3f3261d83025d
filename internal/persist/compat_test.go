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

	if g == nil {
		return append(b, 0)
	}
	keep := byte(0)
	if g.KeepsSingletons() {
		keep = 1
	}
	b = append(b, 1, keep)
	b = binary.AppendUvarint(b, uint64(g.NumValues()))
	for _, v := range g.Values() {
		b = AppendString(b, v)
	}
	b = binary.AppendUvarint(b, uint64(g.NumAttrs()))
	for i := 0; i < g.NumAttrs(); i++ {
		b = AppendString(b, g.AttrID(g.AttrNode(i)))
	}
	// The CSR offsets as first-order deltas: 0, then each node's degree.
	n := int32(g.NumNodes())
	b = binary.AppendUvarint(b, uint64(n+1))
	b = binary.AppendUvarint(b, 0)
	for u := int32(0); u < n; u++ {
		b = binary.AppendUvarint(b, uint64(g.Degree(u)))
	}
	b = binary.AppendUvarint(b, uint64(2*g.NumEdges()))
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	// Every value with a cell and its lake-wide cell count, in ID order.
	occ := make([]int64, l.Symbols().Len())
	for _, a := range l.Attributes() {
		for j, id := range a.IDs() {
			occ[id] += int64(a.Freqs()[j])
		}
	}
	nOcc := 0
	for _, c := range occ {
		if c > 0 {
			nOcc++
		}
	}
	b = binary.AppendUvarint(b, uint64(nOcc))
	for id, c := range occ {
		if c > 0 {
			b = AppendString(b, l.Symbols().String(uint32(id)))
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return b
}

// marshalV3 is Marshal in format 3, the reference encoder of the layout
// that numbers symbols in ID order and writes every cell as a string.
func marshalV3(l *lake.Lake, g *bipartite.Graph) []byte {
	buf := appendBodyV3(append([]byte(nil), magic[:]...), l, g)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(magic):]))
}

// appendBodyV3 is the format 3 body encoder, kept as the reference the
// decoder's format 3 path is held to.
func appendBodyV3(b []byte, l *lake.Lake, g *bipartite.Graph) []byte {
	b = binary.AppendUvarint(b, 3)
	b = AppendString(b, l.Name)
	b = binary.AppendUvarint(b, l.Version())

	// The symbol section: every value an attribute holds, once, in ID order.
	syms, tables, tableAttrs := l.Symbols(), l.Tables(), l.TableAttributes()
	rank := make([]uint64, syms.Len()) // live rank + 1; 0 for a dead ID
	n := uint64(0)
	for _, attrs := range tableAttrs {
		for ai := range attrs {
			for _, id := range attrs[ai].IDs() {
				if rank[id] == 0 {
					rank[id] = 1
					n++
				}
			}
		}
	}
	b = binary.AppendUvarint(b, n)
	n = 0
	for id := range rank {
		if rank[id] != 0 {
			n++
			rank[id] = n
			b = AppendString(b, syms.String(uint32(id)))
		}
	}

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
			prev := uint64(0)
			for _, id := range a.IDs() {
				b = binary.AppendUvarint(b, rank[id]-prev-1)
				prev = rank[id]
			}
			for _, f := range a.Freqs() {
				b = binary.AppendUvarint(b, uint64(f))
			}
		}
	}

	if g == nil {
		return append(b, 0)
	}
	keep := byte(0)
	if g.KeepsSingletons() {
		keep = 1
	}
	return append(b, 1, keep)
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

// checkFormatsAgree encodes the state in formats 1 and 3 (the reference
// encoders) and format 4 (Marshal). Each decode must hold the encoded lake
// and, unless g is nil (a lake-only snapshot), a graph Equal to a scratch
// FromAttributes build with g's singleton setting that ranks
// byte-identically to it; every decode must re-encode to the format 4 bytes.
func checkFormatsAgree(t *testing.T, what string, l *lake.Lake, g *bipartite.Graph) {
	t.Helper()
	var scratch *bipartite.Graph
	if g != nil {
		scratch = bipartite.FromAttributes(l.Attributes(), bipartite.Options{KeepSingletons: g.KeepsSingletons()})
	}
	v4 := Marshal(l, g)
	for format, b := range map[int][]byte{1: marshalV1(l, g), 3: marshalV3(l, g), 4: v4} {
		sn, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: format %d: %v", what, format, err)
		}
		if got, want := lakeDump(sn.Lake), lakeDump(l); got != want {
			t.Fatalf("%s: format %d lake:\n%s\nwant:\n%s", what, format, got, want)
		}
		switch {
		case scratch == nil && sn.Graph != nil:
			t.Fatalf("%s: format %d: a lake-only snapshot decoded with a graph", what, format)
		case scratch != nil && (sn.Graph == nil || !sn.Graph.Equal(scratch)):
			t.Fatalf("%s: format %d: decoded graph differs from a scratch build", what, format)
		case scratch != nil && rankingDump(sn.Graph) != rankingDump(scratch):
			t.Fatalf("%s: format %d: decoded graph ranks differently from a scratch build", what, format)
		}
		if !bytes.Equal(Marshal(sn.Lake, sn.Graph), v4) {
			t.Fatalf("%s: re-encoding a decoded format %d snapshot differs from Marshal's bytes", what, format)
		}
	}
}

// TestFormatsDecodeAlike holds the decoder to one result across formats:
// formats 1 and 3 from the reference encoders and format 4 from Marshal, on
// SB seeds 1-20 with the singleton filter on, and on random churn lakes of
// awkward cells with the filter on, off, and lake-only. Formats 1 to 3 as
// earlier builds wrote them are TestLoadsParentFormatSnapshot's fixtures.
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
// Format 4 numbers symbols in byte order, so a decoded snapshot re-encodes
// to the bytes it came from whatever the lake's removal history: fresh,
// after RemoveTable, and after a symbol-table compaction.
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

// TestLoadsParentFormatSnapshot loads the snapshots earlier builds wrote of
// one state: format 1 by the string-keyed codec that preceded symbol
// interning, format 2 by the build just before format 3, format 3 by the
// build just before format 4. The state is the
// Figure 1 lake, plus a table added and removed again (so the writer's
// symbol table held dead values), plus T5, a table of mixed-case, padded
// and non-ASCII cells: 5 tables at version 7, saved with the singleton
// filter on. Each loaded graph must equal a scratch build of the loaded
// lake, both must rank exactly as the writing build did
// (testdata/parent-v<N>.ranking), and the loaded lake must keep rebuilding
// incrementally. The format 3 reference encoder must re-encode the format 3
// file byte for byte.
func TestLoadsParentFormatSnapshot(t *testing.T) {
	for _, format := range []string{"v1", "v2", "v3"} {
		sn, err := Load("testdata/parent-" + format + ".snapshot")
		if err != nil {
			t.Fatal(err)
		}
		if sn.Lake.NumTables() != 5 || sn.Lake.Version() != 7 || sn.Graph == nil {
			t.Fatalf("%s: tables=%d version=%d graph=%v, want 5, 7, a graph",
				format, sn.Lake.NumTables(), sn.Lake.Version(), sn.Graph != nil)
		}
		scratch := bipartite.FromLake(sn.Lake, bipartite.Options{})
		if !sn.Graph.Equal(scratch) {
			t.Fatalf("%s: loaded graph differs from a scratch build of the loaded lake", format)
		}
		want, err := os.ReadFile("testdata/parent-" + format + ".ranking")
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*bipartite.Graph{sn.Graph, scratch} {
			if got := rankingDump(g); got != string(want) {
				t.Fatalf("%s: ranking differs from the writing build's:\n%s\nwant:\n%s", format, got, want)
			}
		}
		if format == "v3" {
			file, err := os.ReadFile("testdata/parent-v3.snapshot")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalV3(sn.Lake, sn.Graph), file) {
				t.Error("v3: the format 3 reference encoder does not re-encode the parent build's file")
			}
		}
		sn.Lake.RemoveTable("T5")
		next, diff := bipartite.RebuildDiff(sn.Graph, sn.Lake.Attributes(), bipartite.Options{})
		if diff == nil || diff.Full || !next.Equal(bipartite.FromLake(sn.Lake, bipartite.Options{})) {
			t.Errorf("%s: incremental rebuild after loading the snapshot is wrong", format)
		}
	}
}
