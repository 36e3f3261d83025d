package persist

import (
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
)

// sbSnapshot is the snapshot of the SB seed 1 lake saved with a graph.
func sbSnapshot() []byte {
	l := datagen.NewSB(1).Lake
	return Marshal(l, bipartite.FromLake(l, bipartite.Options{}))
}

// BenchmarkUnmarshalSB decodes the snapshot of the SB seed 1 lake saved with
// a graph: the decode a follower's bootstrap and a restart's Load run,
// including the graph build over the decoded attributes.
func BenchmarkUnmarshalSB(b *testing.B) {
	buf := sbSnapshot()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalSB encodes the SB seed 1 lake as its leader holds it, with
// symbol IDs in first-appearance order: the leader's cost of a snapshot,
// paid once per version, including numbering the symbols in byte order.
func BenchmarkMarshalSB(b *testing.B) {
	l := datagen.NewSB(1).Lake
	g := bipartite.FromLake(l, bipartite.Options{})
	b.SetBytes(int64(len(Marshal(l, g))))
	b.ReportAllocs()
	for b.Loop() {
		Marshal(l, g)
	}
}
