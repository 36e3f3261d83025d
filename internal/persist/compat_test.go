package persist

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
)

// TestMarshalDeterministic: the same state always encodes to the same bytes
// (occurrence counts go out in symbol-ID order, not map order), so
// checkpoint and bootstrap bytes can be compared and cached by content.
func TestMarshalDeterministic(t *testing.T) {
	l := datagen.NewSB(1).Lake
	g := bipartite.FromLake(l, bipartite.Options{})
	first := Marshal(l, g)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(Marshal(l, g), first) {
			t.Fatal("two Marshal calls on one state returned different bytes")
		}
	}
	// For a lake with no removal history, a decoded snapshot re-encodes to
	// the bytes it came from.
	sn, err := Unmarshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Marshal(sn.Lake, sn.Graph), first) {
		t.Error("re-encoding a decoded snapshot changed its bytes")
	}
}

// TestLoadsParentFormatSnapshot loads a snapshot written by the
// string-keyed codec that preceded symbol interning (same FormatVersion):
// Figure 1 plus a table of mixed-case, padded and non-ASCII cells, one
// table added and removed, singleton filter on. Its graph must equal a
// scratch build of the loaded lake, and both must rank exactly as the
// writing build did (testdata/parent-v1.ranking).
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
