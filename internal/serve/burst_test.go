package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/table"
)

// isolatedTable is the benchmark fresh_exact's n-th isolated upload: two
// columns of 40 cells drawn from 12 values that occur nowhere else, so it
// adds a component of 14 nodes and its warm takes the delta path.
func isolatedTable(n int) *table.Table {
	rng := rand.New(rand.NewSource(int64(n)))
	tb := table.New(fmt.Sprintf("iso_%05d", n))
	for c := range 2 {
		col := make([]string, 40)
		for r := range col {
			col[r] = fmt.Sprintf("ISO%d_%d", n, rng.Intn(12))
		}
		tb.AddColumn(fmt.Sprintf("c%d", c), col...)
	}
	return tb
}

// burstServer is a warmed exact-betweenness server over SB seed 1 whose
// next burst is the add of an isolated table; burst runs one.
type burstServer struct {
	s    *Server
	next int    // the next isolated table to add
	held string // the isolated table in the lake, removed by the next burst
}

func newBurstServer(tb testing.TB) *burstServer {
	s := New(datagen.NewSB(1).Lake, domainnet.Config{Measure: domainnet.BetweennessExact})
	tb.Cleanup(s.Close)
	b := &burstServer{s: s}
	b.settle(tb)
	return b
}

// burst applies one mutation — the add of the next isolated table, or the
// removal of the one added before — and warms its snapshot on the calling
// goroutine, then waits until the warmer is idle.
func (b *burstServer) burst(tb testing.TB) {
	var err error
	if b.held == "" {
		t := isolatedTable(b.next)
		b.next++
		_, err = b.s.Apply([]*table.Table{t}, nil)
		b.held = t.Name
	} else {
		_, err = b.s.Apply(nil, []string{b.held})
		b.held = ""
	}
	if err != nil {
		tb.Fatal(err)
	}
	sn := b.s.snap.Load()
	if err := sn.detector(b.s.cfg.Measure, b.s.cfg).Warm(context.Background()); err != nil {
		tb.Fatal(err)
	}
	b.settle(tb)
}

// settle waits until every started warm has finished.
func (b *burstServer) settle(tb testing.TB) {
	deadline := time.Now().Add(30 * time.Second)
	for c := b.s.ctr; c.warmsStarted.Load() != c.warmsCompleted.Load()+c.warmsCancelled.Load(); {
		if time.Now().After(deadline) {
			tb.Fatal("warm did not finish within 30s")
		}
		runtime.Gosched()
	}
}

// BenchmarkIsolatedBurstSB times one isolated burst on a warmed
// exact-betweenness server over SB seed 1 — the publish (lake mutation,
// normalization, RebuildDiff, snapshot swap) and the delta warm that
// follows it — alternating the add of an isolated 2×40-cell table and its
// removal, as the benchmark's fresh_exact writer does. It reports µs and
// bytes allocated per burst, the warm goroutine's included.
func BenchmarkIsolatedBurstSB(b *testing.B) {
	bs := newBurstServer(b)
	for range 4 {
		bs.burst(b) // settle the lake's and the pools' buffers
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		bs.burst(b)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/burst")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/burst")
}

// isolatedBurstBytes bounds the mean bytes one isolated burst allocates —
// its publish and delta warm, the warm goroutine's included, and the
// test's own table — on SB seed 1. The burst still rebuilds a graph, a
// carry, scores and a ranking sized by the whole lake: about 345 KB at
// GOMAXPROCS 1 and 2 (357 KB at 4) when the bound was set, where the code
// before it allocated about 560 KB. The count does not depend on the
// machine.
const isolatedBurstBytes = 400 << 10

// TestIsolatedBurstAllocBytes holds the mean bytes allocated by 100
// isolated bursts (add, then removal, of fresh_exact's isolated table) on a
// warmed exact-betweenness server over SB seed 1 under isolatedBurstBytes.
func TestIsolatedBurstAllocBytes(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector allocates beside the program")
	}
	bs := newBurstServer(t)
	for range 4 {
		bs.burst(t)
	}
	const bursts = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range bursts {
		bs.burst(t)
	}
	runtime.ReadMemStats(&after)
	perBurst := (after.TotalAlloc - before.TotalAlloc) / bursts
	t.Logf("%d bytes allocated per isolated burst (bound %d)", perBurst, isolatedBurstBytes)
	if perBurst > isolatedBurstBytes {
		t.Errorf("an isolated burst allocates %d bytes, over the bound of %d", perBurst, isolatedBurstBytes)
	}
}

// raceDetector reports whether the test binary runs under the race
// detector.
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
