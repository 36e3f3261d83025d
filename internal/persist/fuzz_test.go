package persist

import (
	"os"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/table"
)

// FuzzLoad fuzzes the snapshot decoder in the five formats it reads:
// whatever bytes arrive — a valid format 1 to 5 snapshot, a truncation, a
// bit flip that survives the CRC, or garbage — the decoder must return an
// error or a usable snapshot, never panic. The WAL
// replays and follower bootstraps feed this decoder with bytes from disk and
// network, so "corrupt input cannot crash the process" is a load-bearing
// property, not a nicety.
func FuzzLoad(f *testing.F) {
	l := datagen.Figure1Lake()
	withGraph := Marshal(l, bipartite.FromLake(l, bipartite.Options{KeepSingletons: true}))
	lakeOnly := Marshal(l, nil)

	f.Add(withGraph)
	f.Add(lakeOnly)
	// Formats 1, 3 and 4: the reference encoders' bytes; formats 1 to 4:
	// the files earlier builds wrote. Marshal's bytes above are format 5.
	for _, g := range []*bipartite.Graph{bipartite.FromLake(l, bipartite.Options{KeepSingletons: true}), nil} {
		f.Add(marshalV1(l, g))
		f.Add(marshalV3(l, g))
		f.Add(marshalV4(l, g))
	}
	for _, name := range []string{"parent-v1", "parent-v2", "parent-v3", "parent-v4"} {
		parent, err := os.ReadFile("testdata/" + name + ".snapshot")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(parent)
	}
	f.Add([]byte{})
	f.Add([]byte("DNET"))
	f.Add(withGraph[:len(withGraph)/2])            // truncated mid-body
	f.Add(withGraph[:len(withGraph)-2])            // truncated checksum
	f.Add(append([]byte("DNE"), withGraph[3:]...)) // intact length, broken magic
	for _, at := range []int{8, len(withGraph) / 2, len(withGraph) - 6} {
		flipped := append([]byte(nil), withGraph...)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	// A WAL record frame is not a snapshot; the decoder must reject the
	// sibling format cleanly. Built by hand — importing internal/wal here
	// would be an import cycle.
	rec := AppendTable([]byte{0, 1, 0, 1}, table.New("t").AddColumn("c", "v"))
	f.Add(append([]byte{'D', 'N', 'W', 'L', 1}, rec...))

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := Unmarshal(data)
		if err != nil {
			return
		}
		// A successful decode must hand back fully usable state: these walk
		// the lake, the attribute caches and the graph CSR, so an
		// structurally-inconsistent decode that slipped through would
		// surface here (as a panic, failing the fuzz run).
		if sn.Lake == nil {
			t.Fatal("nil error and nil lake")
		}
		_ = sn.Lake.Stats()
		if sn.Graph != nil {
			_ = sn.Graph.NumEdges()
			_ = sn.Graph.Degree(0)
		}
	})
}
