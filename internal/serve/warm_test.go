package serve

// Coverage for the background ranking warmer and the /metrics endpoint: a
// publish pre-warms the new snapshot, with or without Options.WarmMeasures,
// and the warm set holds each measure once; a newer publish provably cancels
// the superseded warm (counter-asserted, never timing-asserted); superseded
// snapshots are released; a mutation storm with the warmer active never
// serves a stale snapshot's ranking; and a checkpoint taken after Apply
// returns is consistent while the warmer runs.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/table"
)

// waitWarm polls the warmer's counters until cond holds; it fails the test
// after a generous deadline instead of hanging forever.
func waitWarm(t *testing.T, s *Server, what string, cond func(WarmStats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(s.WarmStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats = %+v", what, s.WarmStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmerPrewarmsEveryPublish: a server built by New, with no options,
// warms its default measure after every publish.
func TestWarmerPrewarmsEveryPublish(t *testing.T) {
	measure := domainnet.BetweennessExact
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        measure,
		KeepSingletons: true,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	// The initial publish is warmed too.
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })
	assertSnapshotWarm := func() {
		t.Helper()
		sn := s.snap.Load()
		sn.dc.mu.Lock()
		d := sn.dc.dets[measure]
		sn.dc.mu.Unlock()
		if d == nil || !d.Ready() {
			t.Fatal("published snapshot's detector is not pre-warmed")
		}
	}
	assertSnapshotWarm()

	// A mutation publishes a new snapshot; the warmer must re-warm it
	// without any read arriving.
	resp := do(t, http.MethodPost, ts.URL+"/tables/W1",
		strings.NewReader("animal,city\nJaguar,Memphis\nOcelot,Lima\n"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitWarm(t, s, "post-mutation warm", func(w WarmStats) bool { return w.Completed == 2 })
	assertSnapshotWarm()

	// The first read after the warm is a warm hit, not a cold miss.
	getJSON(t, ts.URL+"/topk?k=3", http.StatusOK)
	if w := s.WarmStats(); w.Hits != 1 || w.Misses != 0 {
		t.Errorf("post-warm read counted hits=%d misses=%d, want 1/0", w.Hits, w.Misses)
	}
}

// TestWarmSetDedupes: WarmMeasures naming the default measure (twice) adds
// nothing to it, so a publish warms exactly two measures, default first.
func TestWarmSetDedupes(t *testing.T) {
	def := domainnet.BetweennessExact
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{
		Measure:        def,
		KeepSingletons: true,
	}, Options{WarmMeasures: []domainnet.Measure{def, def, domainnet.LCC}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })

	sn := s.snap.Load()
	sn.dc.mu.Lock()
	n := len(sn.dc.dets)
	for m, d := range sn.dc.dets {
		if !d.Ready() {
			t.Errorf("warmed measure %s is not ready", m)
		}
	}
	sn.dc.mu.Unlock()
	if n != 2 {
		t.Errorf("the warm built %d detectors, want 2", n)
	}
	warm := getJSON(t, ts.URL+"/metrics", http.StatusOK)["warm"].(map[string]any)
	want := []any{def.String(), domainnet.LCC.String()}
	if got := warm["measures"]; !reflect.DeepEqual(got, want) {
		t.Errorf("warm.measures = %v, want %v", got, want)
	}
}

// TestSupersededWarmIsCancelled is the acceptance test for warm
// cancellation: a warm held in flight while a newer publish lands must be
// cancelled (observable in the counters) and must never mark the superseded
// snapshot's detector ready. The warm gate makes the interleaving
// deterministic — no sleeps, no timing assumptions.
func TestSupersededWarmIsCancelled(t *testing.T) {
	measure := domainnet.BetweennessExact
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{
		Measure:        measure,
		KeepSingletons: true,
	}, Options{WarmMeasures: []domainnet.Measure{measure}})
	t.Cleanup(s.Close)
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })

	// Gate every later warm: it reports in, then blocks until released.
	entered := make(chan uint64, 4)
	release := make(chan struct{})
	s.warmMu.Lock()
	s.warmGate = func(v uint64) {
		entered <- v
		<-release
	}
	s.warmMu.Unlock()

	mkTable := func(name string) *table.Table {
		return table.New(name).AddColumn("animal", "Jaguar", "Puma").
			AddColumn("city", "Memphis", "Lima")
	}

	// Publish A: its warm enters the gate and holds there, pre-compute not
	// yet begun.
	if _, err := s.Apply([]*table.Table{mkTable("A")}, nil); err != nil {
		t.Fatal(err)
	}
	snA := s.snap.Load()
	if v := <-entered; v != snA.version {
		t.Fatalf("gated warm reported version %d, want %d", v, snA.version)
	}

	// Publish B supersedes A while A's warm is provably still in flight.
	if _, err := s.Apply([]*table.Table{mkTable("B")}, nil); err != nil {
		t.Fatal(err)
	}
	snB := s.snap.Load()
	<-entered // B's warm is gated too
	close(release)

	waitWarm(t, s, "cancel + completion", func(w WarmStats) bool {
		return w.Started == 3 && w.Cancelled == 1 && w.Completed == 2
	})

	// The cancelled warm must not have computed A's ranking; B's must be
	// warm. (After Cancelled ticked, A's warm goroutine has fully exited.)
	snA.dc.mu.Lock()
	dA := snA.dc.dets[measure]
	snA.dc.mu.Unlock()
	if dA != nil && dA.Ready() {
		t.Error("superseded warm ran to completion: snapshot A's ranking was computed")
	}
	snB.dc.mu.Lock()
	dB := snB.dc.dets[measure]
	snB.dc.mu.Unlock()
	if dB == nil || !dB.Ready() {
		t.Error("winning warm did not pre-warm snapshot B")
	}
	if s.Version() != snB.version {
		t.Errorf("served version = %d, want %d", s.Version(), snB.version)
	}
}

// collected runs the garbage collector until the graph behind wp is freed,
// reporting false if it is still alive after a generous deadline. A warm
// goroutine that has just ticked its counter may hold its snapshot for a
// moment longer, so one GC is not always enough; a leak never frees.
func collected(wp weak.Pointer[bipartite.Graph]) bool {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if wp.Value() == nil {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// TestWarmReleasesSupersededSnapshot checks the one-generation bound of the
// delta prior: a warmed detector links to its predecessor only until its
// own scores are computed, so two publishes past snapshot N−1 leave nothing
// holding N−1's graph. The gated variant holds snapshot N's warm in flight
// until N+1 cancels it: the cancelled N, and the N−1 its detector links to,
// must both be released.
func TestWarmReleasesSupersededSnapshot(t *testing.T) {
	// Singleton filtering on: a stray row of fresh values changes the table
	// but not the adjacency, so each rewrite of W1 warms incrementally — the
	// path that actually attaches a predecessor.
	mkW1 := func(stray string) *table.Table {
		return table.New("W1").AddColumn("animal", "Jaguar", "Puma", stray+"Beast").
			AddColumn("city", "Memphis", "Lima", stray+"Town")
	}
	for _, gated := range []bool{false, true} {
		t.Run(fmt.Sprintf("gated=%v", gated), func(t *testing.T) {
			s := New(datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.BetweennessExact})
			t.Cleanup(s.Close)
			waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })
			if _, err := s.Apply([]*table.Table{mkW1("A")}, nil); err != nil {
				t.Fatal(err)
			}
			waitWarm(t, s, "warm of N-1", func(w WarmStats) bool { return w.Completed == 2 })
			older := weak.Make(s.snap.Load().graph)

			entered := make(chan uint64, 2) // the warms of N and N+1
			release := make(chan struct{})
			if gated {
				s.warmMu.Lock()
				s.warmGate = func(v uint64) {
					entered <- v
					<-release
				}
				s.warmMu.Unlock()
			}
			if _, err := s.Apply([]*table.Table{mkW1("B")}, []string{"W1"}); err != nil {
				t.Fatal(err)
			}
			middle := weak.Make(s.snap.Load().graph)
			if gated {
				<-entered // N's warm holds at the gate
			} else {
				waitWarm(t, s, "warm of N", func(w WarmStats) bool { return w.Completed == 3 })
			}
			if _, err := s.Apply([]*table.Table{mkW1("C")}, []string{"W1"}); err != nil {
				t.Fatal(err)
			}
			if gated {
				<-entered
				close(release)
			}
			waitWarm(t, s, "warms to settle", func(w WarmStats) bool {
				return w.Started == 4 && w.Completed+w.Cancelled == 4
			})
			ws := s.WarmStats()
			if gated && (ws.Cancelled != 1 || ws.Incremental != 0) {
				t.Errorf("gated run counted cancelled=%d incremental=%d, want 1/0", ws.Cancelled, ws.Incremental)
			}
			if !gated && ws.Incremental != 2 {
				t.Errorf("both rewrites should warm through the prior: incremental=%d, want 2", ws.Incremental)
			}

			if !collected(older) {
				t.Error("snapshot N-1's graph is still reachable after two superseding publishes")
			}
			if gated && !collected(middle) {
				t.Error("the cancelled snapshot N's graph is still reachable")
			}
		})
	}
}

// TestCarriedPublishDoesNotCancelWarm covers the no-op-churn hazard: a
// burst that leaves the graph unchanged (remove + re-add verbatim) carries
// the previous snapshot's graph and detector cache forward, so its warm is
// still warming exactly the published state. Cancelling and restarting it
// would mean sustained no-op churn keeps every reader cold forever — the
// carried publish must instead join the in-flight warm's scope, and the
// shared cache makes the new snapshot warm when that warm completes.
func TestCarriedPublishDoesNotCancelWarm(t *testing.T) {
	measure := domainnet.BetweennessExact
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{
		Measure:        measure,
		KeepSingletons: true,
	}, Options{WarmMeasures: []domainnet.Measure{measure}})
	t.Cleanup(s.Close)
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })

	entered := make(chan uint64, 4)
	release := make(chan struct{})
	s.warmMu.Lock()
	s.warmGate = func(v uint64) {
		entered <- v
		<-release
	}
	s.warmMu.Unlock()

	mkTable := func() *table.Table {
		return table.New("noop").AddColumn("animal", "Jaguar", "Puma").
			AddColumn("city", "Memphis", "Lima")
	}

	// Publish A changes the graph; its warm holds at the gate.
	if _, err := s.Apply([]*table.Table{mkTable()}, nil); err != nil {
		t.Fatal(err)
	}
	snA := s.snap.Load()
	<-entered

	// The no-op burst: remove and re-add the identical table in one Apply.
	// The version advances but the rebuilt graph is the carried original.
	if _, err := s.Apply([]*table.Table{mkTable()}, []string{"noop"}); err != nil {
		t.Fatal(err)
	}
	snB := s.snap.Load()
	if snB.graph != snA.graph {
		t.Fatal("setup: verbatim remove+re-add did not carry the graph over")
	}
	if snB.dc != snA.dc {
		t.Fatal("carried publish did not share the detector cache")
	}
	if snB.version <= snA.version {
		t.Fatalf("carried publish did not advance the version: %d <= %d", snB.version, snA.version)
	}
	<-entered // the carried publish's warm is gated too, not skipped
	close(release)

	// Neither warm may be cancelled: A's warm computes, the carried one
	// joins it through the shared detector latch.
	waitWarm(t, s, "both warms to complete", func(w WarmStats) bool {
		return w.Started == 3 && w.Completed == 3
	})
	if w := s.WarmStats(); w.Cancelled != 0 {
		t.Errorf("no-op churn cancelled %d warm(s); carried publishes must join, not cancel", w.Cancelled)
	}
	snB.dc.mu.Lock()
	d := snB.dc.dets[measure]
	snB.dc.mu.Unlock()
	if d == nil || !d.Ready() {
		t.Error("carried snapshot is not warm after the joined warm completed")
	}
}

// TestMutationStormServesFreshRankings hammers the write path while warms
// are continuously scheduled and cancelled, with readers in flight: every
// response must come from some published snapshot with a monotonically
// non-decreasing version, and the post-storm ranking must be bit-identical
// to a cold rebuild of the same lake — never a stale snapshot's ranking.
func TestMutationStormServesFreshRankings(t *testing.T) {
	cfg := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}
	s := NewWithOptions(datagen.Figure1Lake(), cfg,
		Options{WarmMeasures: []domainnet.Measure{domainnet.BetweennessExact}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	const writers, rounds = 4, 6
	done := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var last float64
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/topk?k=3")
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reader got %d", resp.StatusCode)
				resp.Body.Close()
				return
			}
			var top map[string]any
			err = json.NewDecoder(resp.Body).Decode(&top)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			v := top["version"].(float64)
			if v < last {
				t.Errorf("version went backwards: %v after %v", v, last)
				return
			}
			last = v
		}
	}()

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("storm%d_%d", w, r)
				tb := table.New(name).
					AddColumn("animal", "Jaguar", fmt.Sprintf("beast%d", w)).
					AddColumn("city", "Memphis", fmt.Sprintf("town%d", r))
				for _, burst := range []struct {
					add    []*table.Table
					remove []string
				}{{add: []*table.Table{tb}}, {remove: []string{name}}} {
					v, err := s.Apply(burst.add, burst.remove)
					if err != nil {
						t.Error(err)
						return
					}
					if served := s.Version(); served < v {
						t.Errorf("Apply returned version %d while the server serves %d", v, served)
						return
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()

	// Let the final warm settle, then check the books balance.
	waitWarm(t, s, "storm warms to settle", func(w WarmStats) bool {
		return w.Started == w.Completed+w.Cancelled
	})

	// All storm tables were removed: the lake is Figure 1 again, and the
	// served ranking must equal a cold build's, at the exact final version.
	cold := httptest.NewServer(New(datagen.Figure1Lake(), cfg))
	t.Cleanup(cold.Close)
	got := getJSON(t, ts.URL+"/topk?k=10", http.StatusOK)
	want := getJSON(t, cold.URL+"/topk?k=10", http.StatusOK)
	if !reflect.DeepEqual(got["results"], want["results"]) {
		t.Errorf("post-storm ranking diverged from cold build:\ngot  %v\nwant %v",
			got["results"], want["results"])
	}
	if v := got["version"].(float64); v != float64(4+2*writers*rounds) {
		t.Errorf("final version = %v, want %d", v, 4+2*writers*rounds)
	}
}

// warmIncrementally drives a warmed server through the delta warm path: a
// publish whose rebuild diff is structurally clean — an appended value that
// stays under the singleton filter changes the table but not the graph's
// adjacency — must warm through the incremental scoring path. It checks the
// path counters along the way and returns once that warm has completed.
func warmIncrementally(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	measure := domainnet.BetweennessExact
	cfg := domainnet.Config{Measure: measure} // singleton filtering on: the stray row stays out of the graph
	s := NewWithOptions(datagen.Figure1Lake(), cfg,
		Options{WarmMeasures: []domainnet.Measure{measure}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })
	if w := s.WarmStats(); w.Incremental != 0 || w.FullFallback != 1 {
		t.Fatalf("cold warm counted incremental=%d full=%d, want 0/1", w.Incremental, w.FullFallback)
	}

	mkW1 := func(extra ...[2]string) *table.Table {
		animals := []string{"Jaguar", "Puma"}
		cities := []string{"Memphis", "Lima"}
		for _, row := range extra {
			animals = append(animals, row[0])
			cities = append(cities, row[1])
		}
		return table.New("W1").AddColumn("animal", animals...).AddColumn("city", cities...)
	}

	// Structural publish: a brand-new table. Whether it clears the churn
	// gates or not, it must not count as incremental — it has dirty edges.
	if _, err := s.Apply([]*table.Table{mkW1()}, nil); err != nil {
		t.Fatal(err)
	}
	waitWarm(t, s, "structural warm", func(w WarmStats) bool { return w.Completed == 2 })
	if w := s.WarmStats(); w.Incremental != 0 {
		t.Fatalf("structural publish counted incremental=%d, want 0", w.Incremental)
	}

	// Clean publish: replace W1 with itself plus one stray row whose values
	// occur nowhere else — filtered out, so the diff has an empty dirty set
	// and the warm must carry every score through the delta path.
	if _, err := s.Apply([]*table.Table{mkW1([2]string{"StrayBeast", "StrayTown"})}, []string{"W1"}); err != nil {
		t.Fatal(err)
	}
	waitWarm(t, s, "incremental warm", func(w WarmStats) bool { return w.Completed == 3 })
	if w := s.WarmStats(); w.Incremental != 1 {
		t.Fatalf("clean publish counted incremental=%d (full=%d), want 1", w.Incremental, w.FullFallback)
	}
	return s, ts
}

// TestWarmIncrementalPathAndMetrics: the incremental warm ticks the
// incremental counter and observes its empty dirty set in the dirty-size
// histogram, all of it surfaces through /metrics, and the carried ranking
// equals a cold build's.
func TestWarmIncrementalPathAndMetrics(t *testing.T) {
	s, ts := warmIncrementally(t)

	// The counters must round-trip through /metrics, dirty histogram included.
	metrics := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	warm, ok := metrics["warm"].(map[string]any)
	if !ok {
		t.Fatalf("metrics has no warm section: %v", metrics)
	}
	if got := warm["incremental"].(float64); got != 1 {
		t.Errorf("metrics warm.incremental = %v, want 1", got)
	}
	if got := warm["full_fallback"].(float64); got < 1 {
		t.Errorf("metrics warm.full_fallback = %v, want >= 1", got)
	}
	// Each incremental computation observes its dirty-set size once: the
	// histogram counts exactly the incremental warms, and the one clean
	// publish carried an empty dirty set.
	dirty, ok := warm["dirty"].(map[string]any)
	if !ok {
		t.Fatalf("metrics warm.dirty missing: %v", warm)
	}
	if dirty["count"] != warm["incremental"] || dirty["sum"].(float64) != 0 {
		t.Errorf("warm.dirty count/sum = %v/%v, want %v/0 (one empty-delta carry)",
			dirty["count"], dirty["sum"], warm["incremental"])
	}
	if ws := s.WarmStats(); ws.Dirty.Count != ws.Incremental {
		t.Errorf("WarmStats().Dirty.Count = %d, want Incremental = %d", ws.Dirty.Count, ws.Incremental)
	}

	// The carried ranking must match a cold build of the same lake exactly.
	cold := httptest.NewServer(New(s.lake, s.cfg))
	t.Cleanup(cold.Close)
	got := getJSON(t, ts.URL+"/topk?k=10", http.StatusOK)
	want := getJSON(t, cold.URL+"/topk?k=10", http.StatusOK)
	if !reflect.DeepEqual(got["results"], want["results"]) {
		t.Errorf("incremental ranking diverged from cold build:\ngot  %v\nwant %v",
			got["results"], want["results"])
	}
}

// TestCheckpointAfterApplyWithWarmer is the warm-pipeline variant of the
// torn-checkpoint regression: with a warm running on the new snapshot, a
// checkpoint taken once Apply returns persists the version Apply returned.
// It must load, and the warm books must balance.
func TestCheckpointAfterApplyWithWarmer(t *testing.T) {
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.DegreeBaseline,
		KeepSingletons: true,
	}, Options{WarmMeasures: []domainnet.Measure{domainnet.DegreeBaseline}})
	t.Cleanup(s.Close)

	tb := table.New("torn").AddColumn("animal", "Jaguar", "Puma")
	v, err := s.Apply([]*table.Table{tb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkpointServes(t, s, v)
	waitWarm(t, s, "warms to settle", func(w WarmStats) bool {
		return w.Started == w.Completed+w.Cancelled
	})
}

// TestWarmRankPaths counts the path each warm's ranking takes, on the shape
// of the benchmark's fresh_exact writes over SB seed 1: a table whose values
// occur nowhere else warms by delta and carries its ranking from the
// predecessor's; a table of lake values changes the giant component, so its
// warm recomputes in full and sorts.
func TestWarmRankPaths(t *testing.T) {
	s := New(datagen.NewSB(1).Lake, domainnet.Config{Measure: domainnet.BetweennessExact})
	t.Cleanup(s.Close)
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })
	values := s.snap.Load().graph.Values()
	rng := rand.New(rand.NewSource(1))
	fill := func(name string, cell func() string) *table.Table {
		tb := table.New(name)
		for c := 0; c < 2; c++ {
			col := make([]string, 40)
			for r := range col {
				col[r] = cell()
			}
			tb.AddColumn(fmt.Sprintf("c%d", c), col...)
		}
		return tb
	}
	for i, step := range []struct {
		table                        *table.Table
		incremental, carried, sorted int64
	}{
		{fill("isolated", func() string { return fmt.Sprintf("ISO_%d", rng.Intn(12)) }), 1, 1, 1},
		{fill("connected", func() string { return values[rng.Intn(len(values))] }), 1, 1, 2},
	} {
		apply(t, s, []*table.Table{step.table}, nil)
		waitWarm(t, s, step.table.Name+" warm", func(w WarmStats) bool { return w.Completed == int64(i)+2 })
		if w := s.WarmStats(); w.Incremental != step.incremental || w.RankCarried != step.carried || w.RankSorted != step.sorted {
			t.Errorf("after the %s table: incremental %d, rank carried %d, sorted %d; want %d, %d, %d", step.table.Name,
				w.Incremental, w.RankCarried, w.RankSorted, step.incremental, step.carried, step.sorted)
		}
	}
}
