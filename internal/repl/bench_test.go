package repl

import (
	"context"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/table"
)

// BenchmarkJoinSB bootstraps a fresh follower from a leader serving the SB
// seed 1 lake, over loopback HTTP with the chunked gzip stream. At
// same_version the leader's encoded and compressed snapshot is cached, as
// in the repository benchmark's replica_join; at new_version the leader
// adds or removes a small table before each join (untimed), so every join
// also pays the leader's Marshal and gzip framing, as a join during writes
// does.
func BenchmarkJoinSB(b *testing.B) {
	cfg := domainnet.Config{Measure: domainnet.DegreeBaseline}
	for _, newVersion := range []bool{false, true} {
		name := "same_version"
		if newVersion {
			name = "new_version"
		}
		b.Run(name, func(b *testing.B) {
			leader, _, ts := newLeaderOver(b, datagen.NewSB(1).Lake, cfg)
			join := func() {
				f := &Follower{Leader: ts.URL, Config: cfg}
				if err := f.Bootstrap(context.Background()); err != nil {
					b.Fatal(err)
				}
				f.Server().Close()
			}
			join() // the leader encodes its first version
			extra := []*table.Table{table.New("extra").AddColumn("city", "Buffalo", "Springfield")}
			b.ReportAllocs()
			b.ResetTimer()
			// A b.N loop, not b.Loop: under go1.24's b.Loop the untimed
			// writes kept the benchmark running for minutes.
			for i := range b.N {
				if newVersion {
					b.StopTimer()
					add, remove := extra, []string(nil)
					if i%2 == 1 {
						add, remove = nil, []string{"extra"}
					}
					if _, err := leader.Apply(add, remove); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				join()
			}
		})
	}
}
