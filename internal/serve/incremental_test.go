package serve

// The incremental-equivalence properties of the publish path: a server
// mutated through Apply rebuilds its graph from the previous snapshot
// (bipartite.RebuildDiff) and links each warmed detector to its predecessor
// for delta scoring (domainnet.FromGraphWithPrior). After every burst the
// published graph, scores and rankings must equal a cold domainnet.New over
// the same tables.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/rank"
	"domainnet/internal/table"
)

// servedTables reads the server's tables through Checkpoint, in lake order.
func servedTables(t *testing.T, s *Server) []*table.Table {
	t.Helper()
	var tables []*table.Table
	if err := s.Checkpoint(func(l *lake.Lake, _ *bipartite.Graph) error {
		tables = append(tables, l.Tables()...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tables
}

// scratchDetector builds a detector from scratch over the server's current
// tables.
func scratchDetector(t *testing.T, s *Server, cfg domainnet.Config) *domainnet.Detector {
	t.Helper()
	l := lake.New("scratch")
	for _, tb := range servedTables(t, s) {
		l.MustAdd(tb)
	}
	return domainnet.New(l, cfg)
}

// apply runs one Apply burst and fails the test on error.
func apply(t *testing.T, s *Server, add []*table.Table, remove []string) {
	t.Helper()
	if _, err := s.Apply(add, remove); err != nil {
		t.Fatal(err)
	}
}

// churnStep mutates the server the way a random Add/RemoveTable sequence
// does: with n > minTables tables, one time in three it removes a random
// one, otherwise it adds next().
func churnStep(t *testing.T, s *Server, rng *rand.Rand, minTables int, next func() *table.Table) {
	t.Helper()
	if tables := servedTables(t, s); len(tables) > minTables && rng.Intn(3) == 0 {
		apply(t, s, nil, []string{tables[rng.Intn(len(tables))].Name})
	} else {
		apply(t, s, []*table.Table{next()}, nil)
	}
}

// TestIncrementalUpdateTracksScratch reproduces the Definition 1 scenario
// through the publish path: removing T3 and T4 from the Figure 1 lake
// publishes a rebuilt snapshot that agrees with a cold build, and the
// previous snapshot keeps its own ranking.
func TestIncrementalUpdateTracksScratch(t *testing.T) {
	cfg := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}
	s := New(datagen.Figure1Lake(), cfg)
	t.Cleanup(s.Close)
	before := s.snap.Load()
	if top := before.detector(cfg.Measure, cfg).TopK(1); top[0].Value != "JAGUAR" {
		t.Fatalf("JAGUAR should rank first, got %s", top[0].Value)
	}

	apply(t, s, nil, []string{"T3", "T4"})
	after := s.snap.Load()
	if after.graph == before.graph {
		t.Fatal("removing T3 and T4 published the stale graph")
	}
	cold := scratchDetector(t, s, cfg)
	if !after.graph.Equal(cold.Graph()) {
		t.Fatal("incremental graph differs from scratch build")
	}
	if !slices.Equal(after.detector(cfg.Measure, cfg).Ranking(), cold.Ranking()) {
		t.Fatal("incremental ranking differs from scratch build")
	}
	// The old snapshot is immutable: its ranking still reflects version 4.
	if top := before.detector(cfg.Measure, cfg).TopK(1); top[0].Value != "JAGUAR" {
		t.Errorf("old snapshot mutated by the publish: top = %s", top[0].Value)
	}
}

// TestIncrementalPropertyRandomChurn is the end-to-end equivalence property:
// for a random Add/RemoveTable sequence applied through Apply, every
// published graph and ranking is bit-identical to a cold domainnet.New. The
// vocabulary is small so values keep crossing the singleton threshold in
// both directions.
func TestIncrementalPropertyRandomChurn(t *testing.T) {
	vocab := []string{
		"Jaguar", "Puma", "Panda", "Fox", "Colt", "Aspen", "Dakota",
		"Memphis", "Atlanta", "Berlin", "Tokyo", "Lima",
		"Fiat", "Toyota", "Apple", "Quartz", "Basalt",
	}
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("keep=%v", keep), func(t *testing.T) {
			cfg := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: keep, Workers: 2}
			rng := rand.New(rand.NewSource(11))
			next := 0
			randomTable := func() *table.Table {
				tb := table.New(fmt.Sprintf("t%03d", next))
				next++
				for c := 0; c < 1+rng.Intn(2); c++ {
					vals := make([]string, 1+rng.Intn(6))
					for r := range vals {
						vals[r] = vocab[rng.Intn(len(vocab))]
					}
					tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
				}
				return tb
			}
			l := lake.New("churn")
			l.MustAdd(randomTable())
			s := New(l, cfg)
			t.Cleanup(s.Close)
			for step := 0; step < 30; step++ {
				churnStep(t, s, rng, 1, randomTable)
				sn := s.snap.Load()
				cold := scratchDetector(t, s, cfg)
				if !sn.graph.Equal(cold.Graph()) {
					t.Fatalf("step %d: incremental graph diverged from cold build", step)
				}
				if !slices.Equal(sn.detector(cfg.Measure, s.cfg).Ranking(), cold.Ranking()) {
					t.Fatalf("step %d: incremental ranking diverged from cold build", step)
				}
			}
		})
	}
}

// TestDeltaScoresPropertyRandomChurn is the scoring sibling of
// TestIncrementalPropertyRandomChurn: each subtest runs one server that
// warms both delta-capable measures — exact betweenness as the default,
// harmonic through WarmMeasures — so every publish links each measure's
// detector to its own predecessor, carrying prior scores across the
// rebuild's dirty set. After every burst the subtest's measure must
// reproduce a cold build. Harmonic must match bit for
// bit; betweenness folds per-source contributions through shard-grouped
// partial sums whose grouping shifts with the node count, so carried
// entries are held to a deterministic float-summation tolerance instead
// (see the centrality package comment), and its ranking may swap values
// only within score ties at that tolerance. The vocabulary is split into
// disjoint pools so the graph keeps several components and the delta path
// actually engages (single-pool churn stays under the component churn
// threshold); the test asserts the incremental path was taken, not just
// that it agreed. At every step the detector's ranking, which a delta warm
// derives from its predecessor's (rank.Carry), must also be exactly the full
// sort of its own scores, and some step must have carried it.
func TestDeltaScoresPropertyRandomChurn(t *testing.T) {
	pools := make([][]string, 6)
	for p := range pools {
		for w := 0; w < 6; w++ {
			pools[p] = append(pools[p], fmt.Sprintf("Pool%dWord%d", p, w))
		}
	}
	measures := []domainnet.Measure{domainnet.BetweennessExact, domainnet.HarmonicBaseline}
	for _, m := range measures {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/keep=%v", m, keep), func(t *testing.T) {
				cfg := domainnet.Config{Measure: measures[0], KeepSingletons: keep, Workers: 2}
				rng := rand.New(rand.NewSource(29))
				next := 0
				randomTable := func() *table.Table {
					pool := pools[rng.Intn(len(pools))]
					tb := table.New(fmt.Sprintf("t%03d", next))
					next++
					for c := 0; c < 1+rng.Intn(2); c++ {
						vals := make([]string, 2+rng.Intn(4))
						for r := range vals {
							vals[r] = pool[rng.Intn(len(pool))]
						}
						tb.AddColumn(fmt.Sprintf("c%d", c), vals...)
					}
					return tb
				}
				l := lake.New("delta-churn")
				for i := 0; i < 8; i++ {
					l.MustAdd(randomTable())
				}
				s := NewWithOptions(l, cfg, Options{WarmMeasures: measures[1:]})
				t.Cleanup(s.Close)
				for _, wm := range measures {
					s.snap.Load().detector(wm, s.cfg).Scores() // prime the carry so step 1 can go incremental
				}
				mcfg := cfg
				mcfg.Measure = m
				for step := 0; step < 25; step++ {
					churnStep(t, s, rng, 4, randomTable)
					sn := s.snap.Load()
					d := sn.detector(m, s.cfg)
					cold := scratchDetector(t, s, mcfg)
					if !sn.graph.Equal(cold.Graph()) {
						t.Fatalf("step %d: incremental graph diverged from cold build", step)
					}
					checkDeltaScores(t, step, m, d, cold)
					// Both measures rank homographs high.
					if !slices.Equal(d.Ranking(), rank.Values(sn.graph.Values(), d.Scores(), rank.Descending)) {
						t.Fatalf("step %d: ranking is not the full sort of the detector's own scores", step)
					}
				}
				waitWarm(t, s, "the last warm", func(w WarmStats) bool { return w.Started == w.Completed+w.Cancelled })
				if w := s.WarmStats(); w.Incremental == 0 || w.RankCarried == 0 {
					t.Fatalf("churn sequence never took the incremental scoring path or never carried a ranking: %+v", w)
				}
			})
		}
	}
}

// checkDeltaScores compares a delta-scored detector with a cold build of
// measure m: bit for bit for per-source-output measures, within the
// summation-grouping tolerance (ties may swap) for exact betweenness.
func checkDeltaScores(t *testing.T, step int, m domainnet.Measure, d, cold *domainnet.Detector) {
	t.Helper()
	if m != domainnet.BetweennessExact {
		if !slices.Equal(d.Scores(), cold.Scores()) {
			t.Fatalf("step %d: incremental scores diverged from cold build", step)
		}
		if !slices.Equal(d.Ranking(), cold.Ranking()) {
			t.Fatalf("step %d: incremental ranking diverged from cold build", step)
		}
		return
	}
	withinTol := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
	}
	got, want := d.Scores(), cold.Scores()
	if len(got) != len(want) {
		t.Fatalf("step %d: score vector length %d vs cold %d", step, len(got), len(want))
	}
	for u := range want {
		if !withinTol(got[u], want[u]) {
			t.Fatalf("step %d node %d: incremental score %v vs cold %v beyond summation tolerance",
				step, u, got[u], want[u])
		}
	}
	gotR, wantR := d.Ranking(), cold.Ranking()
	if len(gotR) != len(wantR) {
		t.Fatalf("step %d: ranking length %d vs cold %d", step, len(gotR), len(wantR))
	}
	coldOf := make(map[string]float64, len(wantR))
	for _, s := range wantR {
		coldOf[s.Value] = s.Score
	}
	for i := range wantR {
		if gotR[i].Value == wantR[i].Value {
			continue
		}
		if !withinTol(coldOf[gotR[i].Value], wantR[i].Score) {
			t.Fatalf("step %d rank %d: %q (cold score %v) displaced %q (cold score %v) beyond tie tolerance",
				step, i, gotR[i].Value, coldOf[gotR[i].Value], wantR[i].Value, wantR[i].Score)
		}
	}
}

// TestRebuildPaths: each publish counts the path its rebuild took. The
// first build is full; a table of values found nowhere else rebuilds
// incrementally; a table of empty cells leaves the attributes as they were;
// replacing nearly the whole lake builds from scratch.
func TestRebuildPaths(t *testing.T) {
	s := New(datagen.NewSB(1).Lake, domainnet.Config{Measure: domainnet.DegreeBaseline})
	t.Cleanup(s.Close)
	names := make([]string, 0, 13)
	for _, tb := range servedTables(t, s) {
		names = append(names, tb.Name)
	}
	for _, step := range []struct {
		what   string
		add    *table.Table
		remove []string
		want   RebuildStats
	}{
		{"the first build", nil, nil, RebuildStats{Full: 1}},
		{"an isolated table", table.New("iso").AddColumn("c", "ISO_1", "ISO_1", "ISO_2"), nil, RebuildStats{Full: 1, Incremental: 1}},
		{"a table of empty cells", table.New("empty").AddColumn("c", "", " "), nil, RebuildStats{Full: 1, Incremental: 1, Unchanged: 1}},
		{"a new lake", table.New("other").AddColumn("c", "A", "A", "B"), names[1:], RebuildStats{Full: 2, Incremental: 1, Unchanged: 1}},
	} {
		if step.add != nil {
			apply(t, s, []*table.Table{step.add}, step.remove)
		}
		if got := s.RebuildStats(); got != step.want {
			t.Errorf("after %s: rebuilds %+v, want %+v", step.what, got, step.want)
		}
	}
}
