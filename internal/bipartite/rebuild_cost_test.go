package bipartite

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// The upload shapes a rebuild is priced on, each a table added to SB seed 1:
//   - isolated: 2×40 cells of fresh values (fresh_exact's delta writes);
//   - connected: 2×40 cells of SB graph values (fresh_exact's other writes);
//   - singleton-reusing: 3×200 cells, 70% of them drawn from every value of
//     the lake, its singletons included, so values cross the filter's
//     threshold and dirty the attributes holding their one earlier cell.
var uploadShapes = []string{"isolated", "connected", "singleton-reusing"}

// upload returns a table of the named shape over l, whose graph values are
// values.
func upload(shape string, l *lake.Lake, values []string, rng *rand.Rand) *table.Table {
	tb := table.New("upload")
	switch shape {
	case "isolated", "connected":
		for c := range 2 {
			col := make([]string, 40)
			for r := range col {
				if shape == "isolated" {
					col[r] = fmt.Sprintf("ISO_%d", rng.Intn(12))
				} else {
					col[r] = values[rng.Intn(len(values))]
				}
			}
			tb.AddColumn(fmt.Sprintf("c%d", c), col...)
		}
	default:
		var lakeValues []string
		for _, a := range l.Attributes() {
			lakeValues = append(lakeValues, a.Values()...)
		}
		slices.Sort(lakeValues)
		lakeValues = slices.Compact(lakeValues)
		for c := range 3 {
			col := make([]string, 200)
			for r := range col {
				if rng.Float64() < 0.7 {
					col[r] = lakeValues[rng.Intn(len(lakeValues))]
				} else {
					col[r] = fmt.Sprintf("W_%d_%d", c, rng.Intn(1000))
				}
			}
			tb.AddColumn(fmt.Sprintf("c%d", c), col...)
		}
	}
	return tb
}

// rebuildCase is SB seed 1 without and with one upload: the attribute lists
// before and after, and a graph of the former to rebuild from.
type rebuildCase struct {
	base, with []lake.Attribute
	opts       Options
	g          *Graph
}

func newRebuildCase(shape string, opts Options) *rebuildCase {
	l := datagen.NewSB(1).Lake
	tb := upload(shape, l, FromLake(l, opts).Values(), rand.New(rand.NewSource(1)))
	c := &rebuildCase{base: l.Attributes(), opts: opts}
	l.MustAdd(tb)
	c.with = l.Attributes()
	c.g = FromAttributes(c.base, opts)
	return c
}

// add rebuilds the upload into the case's graph and returns the result;
// back rebuilds it away again, so the next add starts where this one did.
func (c *rebuildCase) add() (*Graph, *Diff) { return RebuildDiff(c.g, c.with, c.opts) }
func (c *rebuildCase) back(g *Graph)        { c.g, _ = RebuildDiff(g, c.base, c.opts) }

// TestRebuildDiffCostSB: with the filter on, an incremental rebuild costs
// under a quarter of a full build of the same attributes for the isolated
// and connected shapes. The singleton-reusing one, whose 600 touched cells
// are each found by value and whose crossing values send a search through
// the kept attributes' IDs, is only logged: it costs about 0.3 of a full
// build, and on a shared 2-vCPU machine its figure crossed a third in a few
// of every 20 runs, with 200 calls per figure or a GC before each timed
// call as well. TestRebuildDiffWorkSB asserts its work in counts instead.
// With the filter off, no shape costs more than a full build. Each figure
// is the fastest of 50 interleaved calls; the test is skipped under the
// race detector.
func TestRebuildDiffCostSB(t *testing.T) {
	if raceDetector() {
		t.Skip("cost ratios do not hold under the race detector")
	}
	for _, keep := range []bool{false, true} {
		for _, shape := range uploadShapes {
			c := newRebuildCase(shape, Options{KeepSingletons: keep, Workers: 1})
			if _, diff := c.add(); diff == nil || diff.Full {
				t.Fatalf("keep=%v %s: the upload did not rebuild incrementally", keep, shape)
			}
			c.g = FromAttributes(c.base, c.opts)
			runtime.GC()
			best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
			for range 50 {
				start := time.Now()
				g, _ := c.add()
				best[0] = min(best[0], time.Since(start))
				c.back(g)
				start = time.Now()
				FromAttributes(c.with, c.opts)
				best[1] = min(best[1], time.Since(start))
			}
			t.Logf("keep=%v %s: RebuildDiff %v, FromAttributes %v", keep, shape, best[0], best[1])
			limit := best[1]
			switch {
			case keep:
			case shape == "singleton-reusing":
				continue // logged above, not asserted
			default:
				limit /= 4
			}
			if best[0] >= limit {
				t.Errorf("keep=%v %s: RebuildDiff %v is not under %v (FromAttributes %v)", keep, shape, best[0], limit, best[1])
			}
		}
	}
}

// TestRebuildDiffWorkSB is TestRebuildDiffCostSB in counts the machine
// cannot move: for each upload shape, filter off and on, a rebuild recounts
// exactly the upload's distinct values, and merges one adjacency list per
// touched value at most, plus the upload's attributes and the kept ones
// whose lists gain or lose a value (each dirty). Every other list is carried
// over as a run.
func TestRebuildDiffWorkSB(t *testing.T) {
	for _, keep := range []bool{false, true} {
		for _, shape := range uploadShapes {
			c := newRebuildCase(shape, Options{KeepSingletons: keep, Workers: 1})
			g, diff := c.add()
			if diff == nil || diff.Full {
				t.Fatalf("keep=%v %s: the upload did not rebuild incrementally", keep, shape)
			}
			uploaded := c.with[len(c.base):]
			distinct := map[uint32]bool{}
			for _, a := range uploaded {
				for _, id := range a.IDs() {
					distinct[id] = true
				}
			}
			dirtyAttrs := 0
			for _, u := range diff.Dirty {
				if int(u) >= g.NumValues() {
					dirtyAttrs++
				}
			}
			limit := g.touched + len(uploaded) + dirtyAttrs
			t.Logf("keep=%v %s: touched %d values, patched %d of %d lists (limit %d)",
				keep, shape, g.touched, g.patched, g.NumNodes(), limit)
			if g.touched != len(distinct) {
				t.Errorf("keep=%v %s: the rebuild recounted %d values, the upload holds %d", keep, shape, g.touched, len(distinct))
			}
			if g.patched < len(uploaded) || g.patched > limit {
				t.Errorf("keep=%v %s: the rebuild merged %d adjacency lists, want %d to %d", keep, shape, g.patched, len(uploaded), limit)
			}
		}
	}
}

// TestRebuildDiffBytesIgnoreDeadIDs: the bytes an isolated add allocates do
// not grow with the symbol table. Here the table carries 4,000 extra dead
// IDs, fewer than the lake's compaction trigger.
func TestRebuildDiffBytesIgnoreDeadIDs(t *testing.T) {
	addBytes := func(dead int) uint64 {
		l := datagen.NewSB(1).Lake
		if dead > 0 {
			col := make([]string, dead)
			for r := range col {
				col[r] = fmt.Sprintf("DEAD_%d", r)
			}
			l.MustAdd(table.New("dead").AddColumn("c", col...))
			l.Attributes()
			l.RemoveTable("dead")
		}
		opts := Options{}
		tb := upload("isolated", l, nil, rand.New(rand.NewSource(1)))
		c := &rebuildCase{base: l.Attributes(), opts: opts}
		l.MustAdd(tb)
		c.with = l.Attributes()
		c.g = FromAttributes(c.base, opts)
		if got := l.Symbols().Len(); dead > 0 && got < 4000 {
			t.Fatalf("the symbol table holds %d IDs: it compacted", got)
		}
		best := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 5 {
			runtime.ReadMemStats(&ms)
			start := ms.TotalAlloc
			g, diff := c.add()
			runtime.ReadMemStats(&ms)
			if diff == nil || diff.Full {
				t.Fatal("the isolated add did not rebuild incrementally")
			}
			best = min(best, ms.TotalAlloc-start)
			c.back(g)
		}
		return best
	}
	clean, withDead := addBytes(0), addBytes(4000)
	t.Logf("isolated add: %d bytes, %d with 4,000 dead IDs", clean, withDead)
	if withDead > clean {
		t.Errorf("an isolated add allocates %d bytes with 4,000 dead IDs, %d without", withDead, clean)
	}
}

// benchGraph keeps the benchmarks' results live.
var benchGraph *Graph

// BenchmarkRebuildDiff prices each upload shape's incremental rebuild and
// the full build of the same attributes, filter on.
func BenchmarkRebuildDiff(b *testing.B) {
	for _, shape := range uploadShapes {
		c := newRebuildCase(shape, Options{Workers: 1})
		b.Run(shape+"/RebuildDiff", func(b *testing.B) {
			for range b.N {
				benchGraph, _ = c.add()
				b.StopTimer()
				c.back(benchGraph)
				b.StartTimer()
			}
		})
		b.Run(shape+"/FromAttributes", func(b *testing.B) {
			for range b.N {
				benchGraph = FromAttributes(c.with, c.opts)
			}
		})
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
