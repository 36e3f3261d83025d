package bench

// Machine-readable benchmark snapshots. TestEmitBenchJSON measures the
// pipeline's hot stages with testing.Benchmark and writes BENCH_<date>.json
// in the repository root, so successive PRs can diff ns/op per stage without
// parsing `go test -bench` text output.
//
// The emitter is opt-in — set DOMAINNET_BENCH_JSON=1 — because it runs real
// benchmarks and would slow every plain `go test ./...` invocation:
//
//	DOMAINNET_BENCH_JSON=1 go test -run TestEmitBenchJSON .

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/centrality"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/engine"
	"domainnet/internal/lake"
	"domainnet/internal/obs"
	"domainnet/internal/persist"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
	"domainnet/internal/table"
	"domainnet/internal/wal"
)

// benchStage is one timed pipeline stage.
type benchStage struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	MBPerSec    float64 `json:"-"`
}

// benchReport is the BENCH_<date>.json schema.
type benchReport struct {
	Schema     int          `json:"schema"`
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Stages     []benchStage `json:"stages"`
}

func TestEmitBenchJSON(t *testing.T) {
	if os.Getenv("DOMAINNET_BENCH_JSON") == "" {
		t.Skip("set DOMAINNET_BENCH_JSON=1 to measure stages and write BENCH_<date>.json")
	}

	gt := datagen.TUS(datagen.SmallTUS())
	tusGraph := bipartite.FromAttributes(gt.Attrs, bipartite.Options{})
	sb := datagen.NewSB(1)
	sbGraph := bipartite.FromLake(sb.Lake, bipartite.Options{})
	nycAttrs := datagen.NYC(datagen.NYCConfig{Scale: 0.05, Seed: 1})

	stages := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"graph_build_tus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bipartite.FromAttributes(gt.Attrs, bipartite.Options{})
			}
		}},
		{"graph_build_nyc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bipartite.FromAttributes(nycAttrs, bipartite.Options{})
			}
		}},
		{"graph_build_sb", func(b *testing.B) {
			attrs := sb.Lake.Attributes()
			for i := 0; i < b.N; i++ {
				bipartite.FromAttributes(attrs, bipartite.Options{})
			}
		}},
		{"incremental_rebuild_sb", func(b *testing.B) {
			// Single-table churn: replace one SB table with a modified
			// variant every iteration, so Changed is non-empty and RebuildDiff
			// runs real delta surgery (dirty-attribute refill, occurrence
			// deltas, CSR re-stitch) — never its no-op fast path. Compare
			// ns/op against graph_build_sb for the delta-pricing win.
			churn := datagen.NewSB(1)
			orig := churn.Lake.Tables()[0]
			variant := table.New(orig.Name)
			for _, col := range orig.Columns {
				variant.AddColumn(col.Name, col.Values...)
			}
			variant.Columns[0].Values = append(
				append([]string(nil), variant.Columns[0].Values...), "churn-variant")
			variants := [2]*table.Table{orig, variant}
			// Prime with the churn table at the end so the first timed
			// iteration is already order-stable (no reorder fallback).
			churn.Lake.RemoveTable(orig.Name)
			churn.Lake.MustAdd(orig)
			g := bipartite.FromLake(churn.Lake, bipartite.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn.Lake.RemoveTable(orig.Name)
				churn.Lake.MustAdd(variants[(i+1)%2])
				attrs := churn.Lake.Attributes()
				g, _ = bipartite.RebuildDiff(g, attrs, bipartite.Changed(g, attrs), bipartite.Options{})
			}
		}},
		{"cold_start_sb", func(b *testing.B) {
			// The restart path a snapshot replaces: read the lake back from
			// CSV files, normalize every cell, run the full graph build.
			dir, err := os.MkdirTemp("", "domainnet-bench")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			if err := datagen.NewSB(1).Lake.SaveDir(dir); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := lake.LoadDir(dir)
				if err != nil {
					b.Fatal(err)
				}
				if g := bipartite.FromLake(l, bipartite.Options{}); g.NumEdges() == 0 {
					b.Fatal("empty graph")
				}
			}
		}},
		{"warm_start_sb", func(b *testing.B) {
			// Process restart with a durable snapshot: decode the persisted
			// lake + attributes + graph (interned values, adjacency,
			// occurrence counts) instead of re-parsing CSVs, re-normalizing
			// every cell and running the full build. Compare against
			// cold_start_sb — the same boot without the snapshot.
			dir, err := os.MkdirTemp("", "domainnet-bench")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "sb.snapshot")
			warm := datagen.NewSB(1)
			if err := persist.Save(path, warm.Lake, bipartite.FromLake(warm.Lake, bipartite.Options{})); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn, err := persist.Load(path)
				if err != nil || sn.Graph == nil {
					b.Fatalf("snapshot load: %v", err)
				}
			}
		}},
		{"wal_replay_sb", func(b *testing.B) {
			// Crash recovery's WAL tail: re-apply 32 logged mutation bursts
			// (decode, version-chain check, lake mutation) on top of a
			// warm-rehydrated SB lake, then one incremental rebuild to a
			// servable graph. Compare against cold_start_sb — the recovery
			// this log replaces when no snapshot exists — and warm_start_sb,
			// the snapshot-only recovery that loses the tail.
			const bursts = 32
			base := datagen.NewSB(1).Lake
			baseTables := append([]*table.Table(nil), base.Tables()...)
			baseAttrs := append([][]lake.Attribute(nil), base.TableAttributes()...)
			baseGraph := bipartite.FromLake(base, bipartite.Options{})
			dir, err := os.MkdirTemp("", "domainnet-bench-wal")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			wlog, err := wal.Open(dir, wal.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer wlog.Close()
			scratch, err := lake.RehydrateWithAttributes(base.Name, base.Version(), baseTables, baseAttrs)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < bursts; i++ {
				rec := &wal.Record{PrevVersion: scratch.Version()}
				if i > 0 {
					rec.Remove = []string{fmt.Sprintf("churn%d", i-1)}
					scratch.RemoveTable(rec.Remove[0])
				}
				t := table.New(fmt.Sprintf("churn%d", i)).
					AddColumn("animal", "jaguar", fmt.Sprintf("beast%d", i))
				rec.Add = []*table.Table{t}
				scratch.MustAdd(t)
				rec.Version = scratch.Version()
				if _, err := wlog.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := lake.RehydrateWithAttributes(base.Name, base.Version(), baseTables, baseAttrs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := wlog.Replay(l.Version(), func(rec *wal.Record) error {
					for _, name := range rec.Remove {
						l.RemoveTable(name)
					}
					for _, t := range rec.Add {
						l.MustAdd(t)
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				attrs := l.Attributes()
				if g, _ := bipartite.RebuildDiff(baseGraph, attrs, bipartite.Changed(baseGraph, attrs),
					bipartite.Options{}); g.NumEdges() == 0 {
					b.Fatal("empty graph")
				}
			}
		}},
		{"follower_catchup_sb", func(b *testing.B) {
			// Replication round trip: a fresh follower bootstraps from the
			// leader's snapshot stream, then tails 8 mutation bursts through
			// the change feed — each applied via the same incremental
			// rebuild path the leader's own writes take. The leader serves
			// the SB lake; mutations are add/remove pairs, so state stays
			// baseline-sized across iterations. RawBootstrap pins the legacy
			// unframed transfer: this stage is the wire-bytes baseline that
			// follower_catchup_compressed_sb is measured against.
			dir, err := os.MkdirTemp("", "domainnet-bench-repl")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			wlog, err := wal.Open(dir, wal.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer wlog.Close()
			ld := repl.NewLeader(wlog)
			leader := serve.NewWithOptions(datagen.NewSB(1).Lake,
				domainnet.Config{Measure: domainnet.DegreeBaseline},
				serve.Options{OnCommit: ld.OnCommit})
			ld.Attach(leader)
			ts := httptest.NewServer(leader)
			defer ts.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := &repl.Follower{Leader: ts.URL, RawBootstrap: true,
					Config: domainnet.Config{Measure: domainnet.DegreeBaseline}}
				if err := f.Bootstrap(ctx); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 4; j++ {
					t := table.New(fmt.Sprintf("churn%d", j)).
						AddColumn("animal", "jaguar", fmt.Sprintf("beast%d", j))
					if _, err := leader.Apply([]*table.Table{t}, nil); err != nil {
						b.Fatal(err)
					}
					if _, err := leader.Apply(nil, []string{t.Name}); err != nil {
						b.Fatal(err)
					}
				}
				for f.Version() != leader.Version() {
					if _, err := f.Poll(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"follower_catchup_compressed_sb", func(b *testing.B) {
			// The same replication round trip over the default chunked
			// bootstrap: the snapshot crosses the wire as CRC'd, per-chunk
			// gzipped, resumable frames. The stage asserts the headline —
			// the bootstrap must move at least 2x fewer bytes than the raw
			// codec it frames (compare ns/op against follower_catchup_sb
			// for the CPU cost of that shrink).
			dir, err := os.MkdirTemp("", "domainnet-bench-replgz")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			wlog, err := wal.Open(dir, wal.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer wlog.Close()
			ld := repl.NewLeader(wlog)
			leader := serve.NewWithOptions(datagen.NewSB(1).Lake,
				domainnet.Config{Measure: domainnet.DegreeBaseline},
				serve.Options{OnCommit: ld.OnCommit})
			ld.Attach(leader)
			ts := httptest.NewServer(leader)
			defer ts.Close()
			ctx := context.Background()
			var st repl.BootstrapStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := &repl.Follower{Leader: ts.URL,
					Config: domainnet.Config{Measure: domainnet.DegreeBaseline}}
				if err := f.Bootstrap(ctx); err != nil {
					b.Fatal(err)
				}
				st = f.BootstrapStats()
				for j := 0; j < 4; j++ {
					t := table.New(fmt.Sprintf("churn%d", j)).
						AddColumn("animal", "jaguar", fmt.Sprintf("beast%d", j))
					if _, err := leader.Apply([]*table.Table{t}, nil); err != nil {
						b.Fatal(err)
					}
					if _, err := leader.Apply(nil, []string{t.Name}); err != nil {
						b.Fatal(err)
					}
				}
				for f.Version() != leader.Version() {
					if _, err := f.Poll(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if st.WireBytes*2 > st.RawBytes {
				b.Fatalf("chunked bootstrap moved %d wire bytes for %d raw bytes — short of the required 2x shrink",
					st.WireBytes, st.RawBytes)
			}
		}},
		{"topk_cached_encode_sb", func(b *testing.B) {
			// The read hot path behind the response cache: a repeat /topk
			// presenting the ETag it was handed is a header write and a 304
			// — no ranking clone, no JSON encode, no body bytes. The stage
			// asserts the serving budget (at most 5 allocations per cached
			// request) before timing it; compare ns/op against
			// topk_warm_after_mutation_sb, the same read paying the encode.
			churn := datagen.NewSB(1)
			srv := serve.New(churn.Lake, domainnet.Config{Measure: domainnet.DegreeBaseline})
			warm := httptest.NewRecorder()
			srv.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/topk?k=10", nil))
			if warm.Code != http.StatusOK {
				b.Fatalf("warm /topk = %d", warm.Code)
			}
			etag := warm.Header().Get("ETag")
			if etag == "" {
				b.Fatal("/topk carries no ETag")
			}
			req := httptest.NewRequest(http.MethodGet, "/topk?k=10", nil)
			req.Header.Set("If-None-Match", etag)
			w := &nullResponseWriter{h: make(http.Header)}
			if allocs := testing.AllocsPerRun(200, func() { srv.ServeHTTP(w, req) }); allocs > 5 {
				b.Fatalf("cached 304 path costs %.0f allocs/op, budget is 5", allocs)
			}
			if w.code != http.StatusNotModified {
				b.Fatalf("conditional /topk = %d, want 304", w.code)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ServeHTTP(w, req)
			}
		}},
		{"metrics_overhead_sb", func(b *testing.B) {
			// The observability layer's per-request cost in isolation: an
			// Instrumented no-op handler pays the status wrapper, one
			// histogram observation, the counters, and a pooled trace that
			// recycles uncaptured under the production 50ms gate. The stage
			// asserts the budget — at most 2 allocations per request — before
			// timing; topk_cached_encode_sb bounds the same overhead riding a
			// real endpoint's 5-alloc cached path.
			es := &obs.Endpoints{}
			tr := &obs.Tracer{}
			h := obs.Instrumented(es, tr, "noop", func(w http.ResponseWriter, r *http.Request) {
				sp := obs.ActiveFrom(w).StartSpan("work")
				sp.End()
				w.WriteHeader(http.StatusOK)
			})
			req := httptest.NewRequest(http.MethodGet, "/noop", nil)
			w := &nullResponseWriter{h: make(http.Header)}
			if allocs := testing.AllocsPerRun(200, func() { h(w, req) }); allocs > 2 {
				b.Fatalf("instrumented no-op request costs %.0f allocs/op, budget is 2", allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h(w, req)
			}
			b.StopTimer()
			m := es.Get("noop").Metrics()
			if m.Count < int64(b.N) || m.P99NS <= 0 {
				b.Fatalf("accounting lost requests: %+v", m)
			}
			if st := tr.Stats(); st.Captured != 0 {
				b.Fatalf("production gate captured %d fast traces", st.Captured)
			}
		}},
		{"batch_ingest_sb", func(b *testing.B) {
			// Batch ingest through the serving write path: every iteration
			// applies a 3-table batch (and drops the previous one) as ONE
			// coalesced mutation burst with ONE publish and ONE incremental
			// rebuild — the per-table endpoint would pay 3 of each. Compare
			// per-table cost against incremental_rebuild_sb.
			churn := datagen.NewSB(1)
			srv := serve.New(churn.Lake, domainnet.Config{Measure: domainnet.DegreeBaseline})
			mkBatch := func(i int) []*table.Table {
				out := make([]*table.Table, 3)
				for j := range out {
					out[j] = table.New(fmt.Sprintf("batch%d_%d", i%2, j)).
						AddColumn("animal", "jaguar", "puma", fmt.Sprintf("beast%d", j)).
						AddColumn("city", "memphis", "lima", fmt.Sprintf("town%d", j))
				}
				return out
			}
			var prev []string
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				add := mkBatch(i)
				if _, err := srv.Apply(add, prev); err != nil {
					b.Fatal(err)
				}
				prev = prev[:0]
				for _, t := range add {
					prev = append(prev, t.Name)
				}
			}
		}},
		{"topk_cold_after_mutation_sb", func(b *testing.B) {
			// The post-mutation read-latency cliff the warmer exists to
			// remove: a graph-changing publish discards every warm detector,
			// so the first /topk afterwards of a measure nobody warms pays
			// the full exact-betweenness recompute on its own request
			// goroutine. The server warms only its default, degree. Each
			// iteration mutates and lets that warm finish (untimed), then
			// times the first bc-exact read through the HTTP path.
			churn := datagen.NewSB(1)
			srv := serve.New(churn.Lake, domainnet.Config{Measure: domainnet.DegreeBaseline})
			defer srv.Close()
			orig := churn.Lake.Tables()[0]
			variant := table.New(orig.Name)
			for _, col := range orig.Columns {
				variant.AddColumn(col.Name, col.Values...)
			}
			variant.Columns[0].Values = append(
				append([]string(nil), variant.Columns[0].Values...), "churn-variant")
			variants := [2]*table.Table{orig, variant}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := srv.Apply([]*table.Table{variants[(i+1)%2]}, []string{orig.Name}); err != nil {
					b.Fatal(err)
				}
				for ws := srv.WarmStats(); ws.Started != ws.Completed+ws.Cancelled; ws = srv.WarmStats() {
					time.Sleep(time.Millisecond)
				}
				misses := srv.WarmStats().Misses
				b.StartTimer()
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k=10&measure=bc-exact", nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("cold /topk = %d", rec.Code)
				}
				if srv.WarmStats().Misses != misses+1 {
					b.Fatal("cold stage read a computed cache; the comparison is void")
				}
			}
		}},
		{"topk_warm_after_mutation_sb", func(b *testing.B) {
			// The same first-read-after-mutation with the background warmer
			// on: the mutation publishes, the warmer precomputes the ranking
			// off the request path, and the read finds a warm cache. The gap
			// against topk_cold_after_mutation_sb is the serving-latency win;
			// the recompute still happens, but as bounded background cost.
			churn := datagen.NewSB(1)
			srv := serve.NewWithOptions(churn.Lake,
				domainnet.Config{Measure: domainnet.BetweennessExact},
				serve.Options{WarmMeasures: []domainnet.Measure{domainnet.BetweennessExact}})
			defer srv.Close()
			waitWarm := func(n int64) {
				deadline := time.Now().Add(2 * time.Minute)
				for srv.WarmStats().Completed < n {
					if time.Now().After(deadline) {
						b.Fatalf("warm %d never completed; stats = %+v", n, srv.WarmStats())
					}
					time.Sleep(time.Millisecond)
				}
			}
			waitWarm(1)
			orig := churn.Lake.Tables()[0]
			variant := table.New(orig.Name)
			for _, col := range orig.Columns {
				variant.AddColumn(col.Name, col.Values...)
			}
			variant.Columns[0].Values = append(
				append([]string(nil), variant.Columns[0].Values...), "churn-variant")
			if _, err := srv.Apply([]*table.Table{variant}, []string{orig.Name}); err != nil {
				b.Fatal(err)
			}
			waitWarm(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k=10", nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("warm /topk = %d", rec.Code)
				}
			}
			if srv.WarmStats().Misses != 0 {
				b.Fatal("warm stage read a cold detector; the comparison is void")
			}
		}},
		{"warm_incremental_sb", func(b *testing.B) {
			// The incremental-maintenance headline: cost to reach a warm
			// ranking after a single-table publish with the delta scoring
			// path on. The churn variant's appended value stays under the
			// singleton filter, so the rebuild diff has an empty dirty set
			// and the warmer carries the previous scores across the diff
			// instead of re-running Brandes over the lake. Each iteration
			// times publish + warm completion; compare against
			// topk_cold_after_mutation_sb, the full recompute this replaces.
			churn := datagen.NewSB(1)
			srv := serve.NewWithOptions(churn.Lake,
				domainnet.Config{Measure: domainnet.BetweennessExact},
				serve.Options{WarmMeasures: []domainnet.Measure{domainnet.BetweennessExact}})
			defer srv.Close()
			waitWarm := func(n int64) {
				deadline := time.Now().Add(2 * time.Minute)
				for srv.WarmStats().Completed < n {
					if time.Now().After(deadline) {
						b.Fatalf("warm %d never completed; stats = %+v", n, srv.WarmStats())
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			waitWarm(1)
			orig := churn.Lake.Tables()[0]
			variant := table.New(orig.Name)
			for _, col := range orig.Columns {
				variant.AddColumn(col.Name, col.Values...)
			}
			variant.Columns[0].Values = append(
				append([]string(nil), variant.Columns[0].Values...), "churn-variant")
			variants := [2]*table.Table{orig, variant}
			// Prime with the churn table at the end so every timed publish
			// sees stable survivor order (no reorder fallback).
			if _, err := srv.Apply([]*table.Table{variants[1]}, []string{orig.Name}); err != nil {
				b.Fatal(err)
			}
			waitWarm(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Apply([]*table.Table{variants[i%2]}, []string{orig.Name}); err != nil {
					b.Fatal(err)
				}
				waitWarm(int64(i) + 3)
			}
			b.StopTimer()
			if inc := srv.WarmStats().Incremental; inc < int64(b.N) {
				b.Fatalf("only %d of %d timed warms took the incremental path; the comparison is void", inc, b.N)
			}
		}},
		{"mutation_storm_incremental_sb", func(b *testing.B) {
			// Structural mutation storm with the delta path on: every round
			// publishes a real graph change — a new disjoint-vocabulary
			// table (a small isolated component), then its removal — each
			// warmed through the incremental path where the dirty component
			// is small. The stage's point is the equivalence assertion at
			// the end: the served ranking after the storm must be identical
			// to a from-scratch build of the same lake.
			cfg := domainnet.Config{Measure: domainnet.BetweennessExact}
			churn := datagen.NewSB(1)
			srv := serve.NewWithOptions(churn.Lake, cfg,
				serve.Options{WarmMeasures: []domainnet.Measure{domainnet.BetweennessExact}})
			defer srv.Close()
			waitWarm := func(n int64) {
				deadline := time.Now().Add(2 * time.Minute)
				for srv.WarmStats().Completed < n {
					if time.Now().After(deadline) {
						b.Fatalf("warm %d never completed; stats = %+v", n, srv.WarmStats())
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			waitWarm(1)
			warms := int64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("storm%d", i)
				tb := table.New(name).
					AddColumn("a", fmt.Sprintf("Storm%dX", i), fmt.Sprintf("Storm%dY", i)).
					AddColumn("b", fmt.Sprintf("Storm%dX", i), fmt.Sprintf("Storm%dY", i))
				if _, err := srv.Apply([]*table.Table{tb}, nil); err != nil {
					b.Fatal(err)
				}
				warms++
				waitWarm(warms)
				if _, err := srv.Apply(nil, []string{name}); err != nil {
					b.Fatal(err)
				}
				warms++
				waitWarm(warms)
			}
			b.StopTimer()
			if srv.WarmStats().Incremental == 0 {
				b.Fatal("storm never took the incremental path; the equivalence check is void")
			}
			// Equivalence: the storm removed everything it added, so a cold
			// build of a fresh SB lake must rank identically.
			cold := serve.New(datagen.NewSB(1).Lake, cfg)
			topk := func(s http.Handler) any {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k=100", nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("/topk = %d", rec.Code)
				}
				var body map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					b.Fatal(err)
				}
				return body["results"]
			}
			got, want := topk(srv), topk(cold)
			if !reflect.DeepEqual(got, want) {
				b.Fatalf("post-storm incremental ranking diverged from scratch build:\ngot  %v\nwant %v", got, want)
			}
		}},
		{"brandes_exact_sb", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				centrality.Betweenness(sbGraph, engine.Opts{Normalized: true})
			}
		}},
		{"approx_bc_400_tus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				centrality.ApproxBetweenness(tusGraph, engine.Opts{
					Normalized: true, Samples: 400, Seed: 1,
				})
			}
		}},
		{"lcc_attr_jaccard_tus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				centrality.LCCAttributeJaccard(tusGraph, engine.Opts{})
			}
		}},
		{"lcc_exact_sb", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				centrality.LCC(sbGraph, engine.Opts{})
			}
		}},
		{"harmonic_exact_sb", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				centrality.Harmonic(sbGraph, engine.Opts{})
			}
		}},
	}

	report := benchReport{
		Schema:     1,
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, s := range stages {
		r := testing.Benchmark(s.fn)
		report.Stages = append(report.Stages, benchStage{
			Name:        s.name,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		})
		t.Logf("%-22s %12d ns/op %12d B/op %8d allocs/op",
			s.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("BENCH_%s.json", report.Date)
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// nullResponseWriter discards the response body while recording the status
// code, so cached-path stages measure the handler alone — httptest.Recorder
// would add its own buffer allocations to every op.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }
