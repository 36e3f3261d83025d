package domainnet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/rank"
	"domainnet/internal/table"
)

// isolatedTable is the benchmark's fresh_exact isolated write: 2 columns of
// 40 cells over 12 values that occur nowhere else.
func isolatedTable(name string, rng *rand.Rand) *table.Table {
	tb := table.New(name)
	for c := 0; c < 2; c++ {
		col := make([]string, 40)
		for r := range col {
			col[r] = fmt.Sprintf("ISO_%s_%d", name, rng.Intn(12))
		}
		tb.AddColumn(fmt.Sprintf("c%d", c), col...)
	}
	return tb
}

// minDurations times a and b alternately, runs times each, and returns the
// fastest call of each: the least noisy estimate of their costs on a shared
// machine, taken under the same conditions.
func minDurations(runs int, a, b func()) (time.Duration, time.Duration) {
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for range runs {
		for i, f := range [2]func(){a, b} {
			start := time.Now()
			f()
			best[i] = min(best[i], time.Since(start))
		}
	}
	return best[0], best[1]
}

// TestCarriedRankingSB follows the delta warms of fresh_exact on SB seed 1:
// adding, then removing, one isolated 2×40 table. Each successor detector
// must carry its ranking from its predecessor's, equal to a cold detector's
// ranking. The carry must sort only the value nodes the rebuild added or
// dirtied, where rank.Nodes sorts them all, and (outside the race detector)
// must cost under a quarter of the full sort, each the fastest of 200
// interleaved calls.
func TestCarriedRankingSB(t *testing.T) {
	l, rng := datagen.NewSB(1).Lake, rand.New(rand.NewSource(1))
	cfg := Config{Measure: BetweennessExact, Workers: 1}
	d := New(l, cfg)
	if err := d.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(){
		func() { l.MustAdd(isolatedTable("iso", rng)) },
		func() { l.RemoveTable("iso") },
	} {
		mutate()
		g, diff := bipartite.RebuildDiff(d.Graph(), l.Attributes(), cfg.bipartiteOpts())
		next := FromGraphWithPrior(g, cfg, d, diff)
		p := next.prior
		scores := next.Scores()[:g.NumValues()]
		if incremental, _, _ := next.ScorePath(); !incremental {
			t.Fatal("an isolated table did not take the delta score path")
		}
		if !slices.Equal(next.Ranking(), New(l, cfg).Ranking()) {
			t.Fatal("carried ranking differs from a cold detector's")
		}
		changed := make([]bool, len(scores))
		for u := range changed {
			changed[u] = true
		}
		for _, u := range diff.PrevToNew {
			if u >= 0 && int(u) < len(changed) {
				changed[u] = false
			}
		}
		for _, u := range diff.Dirty {
			if int(u) < len(changed) {
				changed[u] = true
			}
		}
		limit := 0
		for _, c := range changed {
			if c {
				limit++
			}
		}
		sorted := len(scores) // rank.Nodes sorts every value node
		if carried, _ := next.RankPath(); carried {
			for _, u := range p.kept(nil, next.carry, len(scores)) {
				if u >= 0 {
					sorted--
				}
			}
		}
		t.Logf("the carry sorted %d of %d value nodes (%d added or dirty)", sorted, len(scores), limit)
		if sorted > limit {
			t.Errorf("the carry sorted %d value nodes; the rebuild added or dirtied %d", sorted, limit)
		}
		if carried, _ := next.RankPath(); !carried {
			t.Fatal("the ranking was sorted, not carried")
		}
		if next.prior != nil {
			t.Error("the ranking kept its predecessor's carry and ranking")
		}
		if raceDetector() {
			d = next
			continue
		}
		runtime.GC() // no collection of the lake's garbage runs beside the timings
		carried, full := minDurations(200,
			func() { rank.Carry(p.ranking, p.kept(nil, next.carry, len(scores)), scores, rank.Descending) },
			func() { rank.Nodes(scores, rank.Descending) })
		t.Logf("carried ranking %v, full sort %v", carried, full)
		if carried*4 >= full {
			t.Errorf("carried ranking %v is not under a quarter of the full sort %v", carried, full)
		}
		d = next
	}
}

// TestConcurrentCarriedDetectorAccess is the -race test for the delta link:
// readers and warms race on a detector whose scores and ranking are both
// derived from its predecessor's, and all of them must see the one carried
// ranking, equal to that of a twin detector computed alone. (A cold
// detector can differ in the last ulps at two workers: see the centrality
// package comment.)
func TestConcurrentCarriedDetectorAccess(t *testing.T) {
	l, rng := datagen.NewSB(1).Lake, rand.New(rand.NewSource(2))
	cfg := Config{Measure: BetweennessExact, Workers: 2}
	prev := New(l, cfg)
	prev.TopK(1)
	l.MustAdd(isolatedTable("iso", rng))
	g, diff := bipartite.RebuildDiff(prev.Graph(), l.Attributes(), cfg.bipartiteOpts())
	want := FromGraphWithPrior(g, cfg, prev, diff).TopK(20)
	d := FromGraphWithPrior(g, cfg, prev, diff)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				d.Scores()
			case 1:
				if err := d.Warm(context.Background()); err != nil {
					t.Error(err)
				}
			case 2:
				if top := d.TopK(20); !slices.Equal(top, want) {
					t.Errorf("TopK under concurrency = %v, want %v", top, want)
				}
			default:
				d.RankPath()
				d.ScorePath()
			}
		}(i)
	}
	wg.Wait()
	if carried, _ := d.RankPath(); !carried {
		t.Error("the ranking was sorted, not carried")
	}
}

// raceDetector reports whether the test binary runs under the race
// detector, whose instrumentation distorts cost comparisons.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
