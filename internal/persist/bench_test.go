package persist

import (
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
)

// BenchmarkUnmarshalSB decodes the snapshot of the SB seed 1 lake saved with
// a graph: the decode a follower's bootstrap and a restart's Load run,
// including the graph build over the decoded attributes.
func BenchmarkUnmarshalSB(b *testing.B) {
	l := datagen.NewSB(1).Lake
	buf := Marshal(l, bipartite.FromLake(l, bipartite.Options{}))
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
