package engine_test

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/engine"
)

// BenchmarkRadixOrderSB times RadixOrder on the two key sets the detect
// pipeline sorts for SB seed 1. "score" is rank.Nodes' sort of the exact
// betweenness of the value nodes: for the non-negative scores betweenness
// gives, its descending key is the complement of the IEEE bits with the
// sign bit set. "value" is the graph build's numbering of the retained
// values, in symbol ID order, by their first eight bytes with the string
// tie-break. An iteration copies the keys into scratch and sorts them.
//
//	go test -run '^$' -bench RadixOrderSB -benchmem ./internal/engine
func BenchmarkRadixOrderSB(b *testing.B) {
	l := datagen.NewSB(1).Lake
	d := domainnet.New(l, domainnet.Config{Measure: domainnet.BetweennessExact})
	values := d.Graph().Values()
	scoreKeys := make([]uint64, len(values))
	for u, s := range d.Scores()[:len(values)] {
		scoreKeys[u] = ^(math.Float64bits(s) | 1<<63)
	}
	syms := l.Symbols()
	ids := make([]uint32, len(values))
	for i, v := range values {
		ids[i], _ = syms.Lookup([]byte(v))
	}
	slices.Sort(ids)
	valueKeys := make([]uint64, len(ids))
	for i, id := range ids {
		var prefix [8]byte
		copy(prefix[:], syms.String(id))
		valueKeys[i] = binary.BigEndian.Uint64(prefix[:])
	}
	byString := func(a, b uint32) int { return strings.Compare(syms.String(ids[a]), syms.String(ids[b])) }
	for _, c := range []struct {
		name string
		keys []uint64
		tie  func(a, b uint32) int
	}{{"score", scoreKeys, nil}, {"value", valueKeys, byString}} {
		b.Run(c.name, func(b *testing.B) {
			scratch := make([]uint64, len(c.keys))
			b.ReportAllocs()
			for b.Loop() {
				copy(scratch, c.keys)
				engine.RadixOrder(scratch, c.tie)
			}
		})
	}
}
