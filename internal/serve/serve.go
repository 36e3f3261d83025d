// Package serve is the concurrent serving layer over one DomainNet lake: a
// stdlib-only, embeddable HTTP service (cmd/domainnetd) built for the
// ROADMAP's heavy-read, changing-lake workload.
//
// The design is a single atomically swapped immutable snapshot. Readers
// (/topk, /score, /stats, /scorers) load the snapshot pointer and never take
// a lock, never block, and never observe a half-applied update. Writers
// (Apply, which logs each new burst through Options.OnCommit first, and
// Replay, which applies logged ones) serialize on a mutex, mutate the lake
// through one apply, rebuild the graph incrementally from the previous
// snapshot (bipartite.RebuildDiff — only the touched table's attributes are
// re-processed), and publish the result with one atomic store. In-flight
// readers keep the old snapshot alive until they finish; new requests see
// the new version. Every burst that changes the lake is published before
// Apply or Replay returns, so the version they return is already served: a
// client that got a 201 or 200 for version v reads v or later from this
// server.
//
// The write lock's contract: writers serialize on writeMu through
// validation, the write-ahead commit (Options.OnCommit, fsync included) and
// the publish, so one slow commit delays the writers queued behind it. A
// request body is read and parsed before the lock is taken: Apply takes
// parsed tables, and withWrite is the only function that locks writeMu.
// Reads, /metrics and Checkpoint never take it, so no writer, however slow,
// delays them. writelock_test.go parks a commit and a trickling upload to
// test both halves.
//
// Every publish is warm: a background warmer precomputes the default measure
// (and any Options.WarmMeasures) on the new snapshot and cancels the warm of
// any snapshot a newer publish supersedes, so the post-mutation recompute is
// a bounded background cost rather than a reader's. A warmed measure's
// detector is created at publish, linked to the previous snapshot's detector
// of that measure (FromGraphWithPrior), so the warm can carry prior scores
// across the rebuild diff. Scores and rankings sit behind the Detector's
// once-latches: a read that arrives before the warm finishes waits on it,
// and a measure nobody warms is computed on the first request for it,
// shared by concurrent requests. GET /metrics exposes the warmer's counters
// and per-endpoint latency accounting.
//
// The read hot path caches fully encoded /topk responses per (snapshot,
// measure, k) with a strong ETag, answering If-None-Match revalidations
// with 304 and no body (see respcache.go).
//
// Every GET route is mounted through Server.read, and only through it: read
// loads the snapshot once, stamps its version in the X-Domainnet-Version
// header, and hands the snapshot to the handler, which has no other way to
// reach one. Every read response therefore carries the version it was served
// from, so routers and clients can detect cross-replica staleness without
// parsing bodies.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/obs"
	"domainnet/internal/rank"
	"domainnet/internal/table"
	"domainnet/internal/wal"
)

// maxUpload bounds a single upload request (one CSV table, or a whole
// multipart batch).
const maxUpload = 64 << 20

// VersionHeader stamps every read response (Server.read sets it) with the
// snapshot version it was served from, so routers and clients can detect
// cross-replica staleness from headers alone — no body parse, and on a 304
// no body at all. The replication layer reuses the same header on its wire
// protocol.
const VersionHeader = "X-Domainnet-Version"

// Sentinel errors of the batch mutation path, so HTTP handlers can map
// library errors to status codes without string matching.
var (
	// ErrConflict marks a table name already present in the lake (or twice
	// in one batch).
	ErrConflict = errors.New("duplicate table")
	// ErrNotFound marks a removal of a table the lake does not hold.
	ErrNotFound = errors.New("no such table")
)

// Server serves homograph detection over a mutable lake. Create one with
// New or NewWithOptions; it implements http.Handler.
type Server struct {
	cfg          domainnet.Config // base detector config; Measure is the default
	afterPublish func(version uint64)
	onCommit     func(Mutation) error
	readOnly     bool

	writeMu sync.Mutex // serializes lake mutations and snapshot swaps
	lake    *lake.Lake // guarded by writeMu

	snap atomic.Pointer[snapshot]
	mux  *http.ServeMux

	// The background ranking warmer. Every publish of a changed graph
	// discards the previous snapshot's warm detectors, so each publish
	// schedules a background precompute of the warm set on the new snapshot
	// — and cancels the in-flight warm of the snapshot it superseded, so a
	// churn burst never stacks wasted centrality runs. The warm set is the
	// default measure, then Options.WarmMeasures, without duplicates.
	warmMeasures []domainnet.Measure
	warmMu       sync.Mutex         // guards warmCtx, warmCancel and warmGate
	warmCtx      context.Context    // scope of the in-flight warm(s), if any
	warmCancel   context.CancelFunc // cancels warmCtx
	// warmGate, when non-nil, runs at the start of each warm goroutine,
	// before any scoring. It exists so tests can hold a warm in flight while
	// they publish the snapshot that supersedes it, making cancellation
	// assertable without timing games.
	warmGate func(version uint64)

	// ctr holds the publish and warm counters. It lives in the endpoint
	// registry, so a follower that re-bootstraps counts on where the server
	// it replaced stopped, and no counter goes backwards.
	ctr *counters

	// Observability: per-endpoint accounting (counts, errors, 304s, latency
	// histograms with quantiles) and the slow-request tracer. The Endpoints
	// registry may be shared — a replication follower hands every server it
	// re-bootstraps the same registry, so accounting survives snapshot swaps.
	obs         *obs.Endpoints
	tracer      *obs.Tracer
	replication func() any
	warmed      []string // display names of warmMeasures, for /metrics
}

// counters are a server's publish and warm counters (see WarmStats).
type counters struct {
	publishes      atomic.Int64 // snapshot swaps
	warmsStarted   atomic.Int64 // warms scheduled (one per publish)
	warmsCompleted atomic.Int64 // warms that precomputed every warmed measure
	warmsCancelled atomic.Int64 // warms abandoned because a newer publish superseded them
	warmHits       atomic.Int64 // reads served from an already-computed cache
	coldMisses     atomic.Int64 // reads whose cache was not computed on arrival

	// Warm path accounting (one count per measure per rebuilt snapshot):
	// whether a warmed measure's score computation took the incremental
	// delta path or fell back to the full recompute, with a histogram of
	// the structural dirty-set sizes of the incremental ones, and whether
	// its ranking was carried from the predecessor's or sorted.
	warmsIncremental  atomic.Int64
	warmsFullFallback atomic.Int64
	dirty             obs.Hist
	rankCarried       atomic.Int64
	rankSorted        atomic.Int64
	// The warmer's time per warmed measure, by score path (see WarmStats).
	warmIncrementalNS obs.Hist
	warmFullNS        obs.Hist

	// Rebuild path accounting, one count per publish that rebuilt the
	// graph from the lake (see RebuildStats), and each such publish's time.
	rebuildUnchanged   atomic.Int64
	rebuildFull        atomic.Int64
	rebuildIncremental atomic.Int64
	publishNS          obs.Hist
}

// Options extend New for warm starts and operational hooks.
type Options struct {
	// Graph, when non-nil, is the graph persist.Load derived from the lake,
	// which the server then owns: its first publish runs RebuildDiff from it
	// like every later publish, so a matching graph is published as it is
	// (an unchanged rebuild), a recovered log tail rebuilds from it, and one
	// built with another KeepSingletons setting falls back to a full build.
	Graph *bipartite.Graph
	// AfterPublish, when non-nil, runs after every snapshot swap (including
	// the initial publish, after any recovered log tail) with the published
	// lake version. It is called on the write path with the write lock held,
	// so every queued writer waits for it (see the package doc's write lock
	// contract): keep it non-blocking, e.g. a send to a checkpointer.
	AfterPublish func(version uint64)
	// OnCommit, when non-nil, runs under the write lock after an Apply
	// burst (never a Replay one) has been checked but before any of it is
	// applied — the write-ahead hook. An error aborts the burst with the
	// lake untouched, so a failed log append never acknowledges a mutation
	// that would be lost on crash. Queued writers wait for it, reads and
	// checkpoints do not (see the write lock's contract in the package doc):
	// keep it bounded (a local WAL append + fsync, not a network round trip).
	OnCommit func(Mutation) error
	// ReadOnly rejects the HTTP mutation endpoints (POST/DELETE /tables…)
	// with 403, for replication followers whose lake must change only
	// through the leader's change feed. Direct Apply and Replay calls — the
	// follower's own replication path is Replay — still work.
	ReadOnly bool
	// WarmMeasures adds measures to the warm set. After every snapshot
	// publish (including the initial one) a goroutine precomputes the
	// default measure's scores and ranking on the new snapshot, then those
	// of these measures, so post-mutation reads find warm caches instead of
	// paying the centrality recompute inline. Duplicates, and the default
	// measure itself, are warmed once. A newer publish cancels the in-flight
	// warm of the snapshot it supersedes (see WarmStats for the counters).
	WarmMeasures []domainnet.Measure
	// Obs, when non-nil, is the endpoint-accounting registry the server
	// records into, and where it keeps its publish and warm counters.
	// Passing one in shares accounting across server rebuilds: a
	// replication follower keeps one registry for the lifetime of the
	// process and hands it to each server it bootstraps, so /metrics
	// survives snapshot re-installs. Nil gets a private registry.
	Obs *obs.Endpoints
	// Tracer, when non-nil, captures slow requests into its ring, exposed at
	// GET /debug/traces. Nil gets a private zero-value tracer (default slow
	// threshold, default ring).
	Tracer *obs.Tracer
	// Replication, when non-nil, returns the server's replication view
	// for the /metrics replication section: a struct whose json and prom
	// tags declare its series (see obs.WriteMetrics). Followers wire this
	// to their status, and a leader to its snapshot encode stats.
	Replication func() any
}

// Mutation is one mutation burst, the write-ahead log's record: the tables
// removed, then added, stamped with the lake version before (PrevVersion)
// and after it (Version). OnCommit logs the bursts Apply takes; Replay
// applies logged ones.
type Mutation = wal.Record

// snapshot is one immutable published version of the served state. The lake
// view, graph and stats are fixed at swap time; detectors (score/ranking
// caches) live in a per-graph cache — snapshots published with the graph
// carried over unchanged share one cache, so warm state (even a warm still
// in flight) transfers to the new snapshot instead of being recomputed.
type snapshot struct {
	version uint64
	verStr  string // decimal version, precomputed for the per-request header
	stats   lake.Stats
	lake    *lake.Lake // a Frozen view, for Checkpoint
	graph   *bipartite.Graph
	dc      *detCache
	// topk caches fully encoded /topk responses per (measure, k). The cache
	// is per snapshot — even a carried publish (same graph, new version)
	// gets a fresh one, because the response body embeds the version.
	topk topkCache
}

// detCache holds one detector per measure over one graph. The publish that
// creates it fills in the warmed measures; any other measure's detector is
// created on first use. The lock covers only the map access; scoring happens
// in the detector's own once-latch, so concurrent callers of the same
// measure share one computation.
type detCache struct {
	mu   sync.Mutex
	dets map[domainnet.Measure]*domainnet.Detector
	// counted marks measures whose warm path (incremental vs fallback) has
	// been recorded, so re-warms of a carried snapshot are not double
	// counted.
	counted map[domainnet.Measure]bool
}

// detector returns sn's detector for m. Only a measure nobody warms reaches
// the creation branch, so it starts without a delta prior and computes in
// full on its first read.
func (sn *snapshot) detector(m domainnet.Measure, base domainnet.Config) *domainnet.Detector {
	dc := sn.dc
	dc.mu.Lock()
	defer dc.mu.Unlock()
	d, ok := dc.dets[m]
	if !ok {
		cfg := base
		cfg.Measure = m
		d = domainnet.FromGraph(sn.graph, cfg)
		dc.dets[m] = d
	}
	return d
}

// New builds a server over the lake's current contents and publishes the
// initial snapshot (a full graph build; all later swaps are incremental).
// The lake must not be used by other goroutines afterwards — the server
// owns it, and applies the Config's Workers bound to its normalization too.
func New(l *lake.Lake, cfg domainnet.Config) *Server {
	return NewWithOptions(l, cfg, Options{})
}

// NewWithOptions is New with a warm-start graph and operational hooks; see
// Options. It is Recover with no log tail.
func NewWithOptions(l *lake.Lake, cfg domainnet.Config, opts Options) *Server {
	s, _ := Recover(l, cfg, opts, nil) // no burst to refuse
	return s
}

// Recover is a restarting leader's catch-up: it applies tail, the bursts
// logged past the lake's version (wal.Log.Replay), in order and with
// Replay's checks, and only then builds the server and publishes, so a
// restart publishes and warms once, rebuilding from Options.Graph. A
// refused burst means the lake and the log disagree: Recover returns its
// error and no server, and the lake is left at the last whole burst.
func Recover(l *lake.Lake, cfg domainnet.Config, opts Options, tail []*Mutation) (*Server, error) {
	s := &Server{cfg: cfg, lake: l, afterPublish: opts.AfterPublish,
		onCommit: opts.OnCommit, readOnly: opts.ReadOnly,
		obs: opts.Obs, tracer: opts.Tracer, replication: opts.Replication}
	if err := s.replay(tail); err != nil {
		return nil, err
	}
	if s.obs == nil {
		s.obs = &obs.Endpoints{}
	}
	s.ctr = s.obs.Shared("serve", func() any { return new(counters) }).(*counters)
	if s.tracer == nil {
		s.tracer = &obs.Tracer{}
	}
	for _, m := range append([]domainnet.Measure{cfg.Measure}, opts.WarmMeasures...) {
		if !slices.Contains(s.warmMeasures, m) {
			s.warmMeasures = append(s.warmMeasures, m)
			s.warmed = append(s.warmed, m.String())
		}
	}
	s.publish(opts.Graph)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /topk", s.read("topk", s.handleTopK))
	mux.HandleFunc("GET /score", s.read("score", s.handleScore))
	mux.HandleFunc("GET /stats", s.read("stats", s.handleStats))
	mux.HandleFunc("GET /scorers", s.read("scorers", s.handleScorers))
	mux.HandleFunc("GET /metrics", s.read("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.read("debug_traces", func(w http.ResponseWriter, r *http.Request, _ *snapshot) {
		s.tracer.ServeHTTP(w, r)
	}))
	mux.HandleFunc("POST /tables", s.instrument("batch_add", s.handleBatchAdd))
	mux.HandleFunc("POST /tables/{name}", s.instrument("add_table", s.handleAddTable))
	mux.HandleFunc("DELETE /tables/{name}", s.instrument("remove_table", s.handleRemoveTable))
	s.mux = mux
	return s, nil
}

// instrument wraps a handler with the endpoint's accounting and tracing
// (obs.Instrumented): status-coded counts, the latency histogram behind the
// /metrics percentiles, and slow-request capture.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return obs.Instrumented(s.obs, s.tracer, name, h)
}

// readHandler serves one GET request from the snapshot read hands it.
type readHandler func(w http.ResponseWriter, r *http.Request, sn *snapshot)

// read mounts a GET route: under the endpoint's instrumentation it loads the
// published snapshot once, stamps its version in VersionHeader, and only then
// runs h on it. Every response of the route — 200, 304 or error — carries the
// version of the one snapshot its body was built from.
func (s *Server) read(name string, h readHandler) http.HandlerFunc {
	return s.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		sp := obs.ActiveFrom(w).StartSpan("snapshot")
		sn := s.snap.Load()
		sp.End()
		w.Header().Set(VersionHeader, sn.verStr)
		h(w, r, sn)
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// HandleInstrumented registers h on the server's mux, wrapped in the
// server's accounting and tracing as endpoint name; call it before the
// server takes requests. The replication endpoints (internal/repl) mount
// here, so they share the listener and /repl/changes shows in /metrics.
func (s *Server) HandleInstrumented(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, h))
}

// Version reports the currently served snapshot version.
func (s *Server) Version() uint64 { return s.snap.Load().version }

// Publishes reports how many snapshots the server has published, including
// the initial one, counted on from the servers it replaced when they shared
// its Options.Obs registry. Each Apply or Replay that changes the lake costs
// exactly one, however many tables it carries.
func (s *Server) Publishes() int64 { return s.ctr.publishes.Load() }

// Checkpoint runs fn on the published snapshot's frozen lake and its graph,
// a consistent pair at the served version, for durable snapshotting
// (persist.Save). It takes no lock: neither readers nor writers wait on fn.
func (s *Server) Checkpoint(fn func(l *lake.Lake, g *bipartite.Graph) error) error {
	sn := s.snap.Load()
	return fn(sn.lake, sn.graph)
}

// withWrite runs one lake mutation under the write lock and, if it changed
// the lake, publishes before it unlocks. It returns the lake version after
// the mutation, which is then the served version: a caller acknowledges
// only what the server already serves.
func (s *Server) withWrite(fn func() error) (uint64, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	err := fn()
	if prev := s.snap.Load(); prev.version != s.lake.Version() {
		s.publish(prev.graph)
	}
	return s.lake.Version(), err
}

// publish, the one way a snapshot is published, rebuilds the graph from base
// (the published graph, or for the first publish Options.Graph) and swaps
// in a new snapshot. Callers hold writeMu (or are Recover). An unchanged
// graph carries the warm detectors over; otherwise the rebuild's diff links
// each warmed detector to its predecessor for delta scoring.
func (s *Server) publish(base *bipartite.Graph) {
	start := time.Now()
	defer func() { s.ctr.publishNS.Observe(time.Since(start).Nanoseconds()) }()
	g, diff := bipartite.RebuildDiff(base, s.lake.Attributes(),
		bipartite.Options{KeepSingletons: s.cfg.KeepSingletons, Workers: s.cfg.Workers})
	switch {
	case diff == nil:
		s.ctr.rebuildUnchanged.Add(1)
	case diff.Full:
		s.ctr.rebuildFull.Add(1)
	default:
		s.ctr.rebuildIncremental.Add(1)
	}
	prev := s.snap.Load()
	lk := s.lake.Frozen()
	next := &snapshot{
		version: lk.Version(),
		verStr:  strconv.FormatUint(lk.Version(), 10),
		stats:   lk.Stats(),
		lake:    lk,
		graph:   g,
	}
	carried := prev != nil && g == prev.graph
	if carried {
		// Same graph, same scores: adopt the whole detector cache, warm
		// entries and in-flight computations included.
		next.dc = prev.dc
	} else {
		// The one delta link: each warmed detector may carry its
		// predecessor's scores across the diff. FromGraphWithPrior keeps the
		// predecessor only while it holds a carry, and the new detector drops
		// it on its first score computation, so at most one superseded
		// snapshot is retained.
		next.dc = &detCache{dets: make(map[domainnet.Measure]*domainnet.Detector)}
		for _, m := range s.warmMeasures {
			var pd *domainnet.Detector
			if prev != nil {
				pd = prev.detector(m, s.cfg)
			}
			cfg := s.cfg
			cfg.Measure = m
			next.dc.dets[m] = domainnet.FromGraphWithPrior(g, cfg, pd, diff)
		}
	}
	s.ctr.publishes.Add(1)
	s.snap.Store(next)
	s.scheduleWarm(next, carried)
	if s.afterPublish != nil {
		s.afterPublish(next.version)
	}
}

// scheduleWarm starts the background precompute of the warm set on the
// just-published snapshot. A publish whose graph changed supersedes
// the previous snapshot, so its in-flight warm (stale work) is cancelled
// first: under churn, only the newest snapshot's warm ever runs to
// completion. A carried publish shares the previous snapshot's detectors,
// so its in-flight warm is still warming exactly the published state — the
// new warm joins that warm's cancellation scope instead of restarting it
// (on already-warm detectors it completes via the latch fast path).
// Called with writeMu held (publishes are serialized), so schedules are
// ordered; the goroutine itself runs outside all locks.
func (s *Server) scheduleWarm(sn *snapshot, carried bool) {
	s.warmMu.Lock()
	ctx := s.warmCtx
	if !carried || ctx == nil || ctx.Err() != nil {
		if !carried && s.warmCancel != nil {
			s.warmCancel()
		}
		// The context is parented on Background, so leaving it uncancelled
		// when its warms simply finish leaks nothing; the next cancel (a
		// superseding publish, or Close) or the GC reclaims it.
		ctx, s.warmCancel = context.WithCancel(context.Background())
		s.warmCtx = ctx
	}
	gate := s.warmGate
	s.warmMu.Unlock()
	s.ctr.warmsStarted.Add(1)
	go func() {
		// Warms are traced like requests: one trace named "warm" with a span
		// per measure. Centrality recomputes dwarf any slow threshold, so
		// warm traces land in /debug/traces, where a slow post-publish read
		// can be told apart from a slow warm.
		wa := s.tracer.Start("warm", "")
		wa.SetNote("v" + sn.verStr)
		if gate != nil {
			gate(sn.version)
		}
		for _, m := range s.warmMeasures {
			sp := wa.StartSpan(m.String())
			d := sn.detector(m, s.cfg)
			start := time.Now()
			err := d.Warm(ctx)
			took := time.Since(start)
			sp.End()
			if err != nil {
				s.ctr.warmsCancelled.Add(1)
				s.tracer.Finish(wa, http.StatusServiceUnavailable)
				return
			}
			s.recordWarmPath(sn.dc, m, d, took)
		}
		s.ctr.warmsCompleted.Add(1)
		s.tracer.Finish(wa, http.StatusOK)
	}()
}

// recordWarmPath counts, once per measure per rebuilt snapshot, whether the
// warmed measure's score computation went through the incremental delta
// path (observing its dirty-set size) or fell back to the full recompute,
// and whether its ranking was carried from the predecessor's or sorted, and
// observes the warmer's time on the measure, took, under its score path.
// The computation may have happened on a reader's goroutine before the
// warmer got there; the paths are recorded all the same, and took is then
// the warmer's wait for it.
func (s *Server) recordWarmPath(dc *detCache, m domainnet.Measure, d *domainnet.Detector, took time.Duration) {
	incremental, dirty, computed := d.ScorePath()
	carried, ranked := d.RankPath()
	if !computed || !ranked {
		return
	}
	dc.mu.Lock()
	first := !dc.counted[m]
	if first {
		if dc.counted == nil {
			dc.counted = make(map[domainnet.Measure]bool)
		}
		dc.counted[m] = true
	}
	dc.mu.Unlock()
	if !first {
		return
	}
	if incremental {
		s.ctr.warmsIncremental.Add(1)
		s.ctr.dirty.Observe(int64(dirty))
		s.ctr.warmIncrementalNS.Observe(took.Nanoseconds())
	} else {
		s.ctr.warmsFullFallback.Add(1)
		s.ctr.warmFullNS.Observe(took.Nanoseconds())
	}
	if carried {
		s.ctr.rankCarried.Add(1)
	} else {
		s.ctr.rankSorted.Add(1)
	}
}

// Close cancels any in-flight background warm. The server stays fully
// usable afterwards — the next publish schedules a fresh warm — so Close is
// for shutdown paths and for followers replacing a bootstrapped server.
func (s *Server) Close() {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmCancel != nil {
		s.warmCancel()
	}
}

// WarmStats is a point-in-time reading of the warmer's counters, and the
// declaration of the warm section of /metrics. Started − Completed −
// Cancelled warms are still in flight. Hits and Misses count /topk and
// /score reads by whether the cache they needed was already computed (by
// the warmer or an earlier read) when the request arrived. A miss need not
// have computed anything: a read that arrives while a warm or another read
// is computing its cache waits on that computation's latch, and counts as a
// miss all the same.
type WarmStats struct {
	Measures  []string `json:"measures" prom:"-"` // the warm set, default measure first
	Started   int64    `json:"started" prom:"warms_total,result=started"`
	Completed int64    `json:"completed" prom:"warms_total,result=completed"`
	Cancelled int64    `json:"cancelled" prom:"warms_total,result=cancelled"`
	Hits      int64    `json:"hits" prom:"warm_reads_total,cache=hit"`
	Misses    int64    `json:"misses" prom:"warm_reads_total,cache=miss"`
	// Incremental and FullFallback split the warmed measures' score
	// computations by path: delta (prior scores carried across the rebuild
	// diff) versus full recompute (no usable prior, non-delta measure, or
	// churn past the fallback threshold). Dirty holds the structural
	// dirty-set size of each incremental computation, so its count equals
	// Incremental.
	Incremental  int64            `json:"incremental" prom:"warm_paths_total,path=incremental"`
	FullFallback int64            `json:"full_fallback" prom:"warm_paths_total,path=full_fallback"`
	Dirty        obs.HistSnapshot `json:"dirty" prom:"warm_dirty_nodes"`
	// RankCarried and RankSorted split the same computations by the path
	// their ranking took: derived from the predecessor's ranking, sorting
	// only the nodes whose scores changed, or sorted in full (no delta
	// score, no predecessor ranking, or a carried order that failed its
	// check).
	RankCarried int64 `json:"rank_carried" prom:"warm_rank_paths_total,path=carried"`
	RankSorted  int64 `json:"rank_sorted" prom:"warm_rank_paths_total,path=sorted"`
	// WarmIncremental and WarmFull time the warmer on each warmed measure
	// (scores and ranking, the benchmark's serve.warm stage) by the path
	// its scores took, so their counts equal Incremental and FullFallback.
	// A measure a reader computed first is timed by the warmer's wait.
	WarmIncremental obs.HistSnapshot `json:"warm_incremental" prom:"warm_seconds,path=incremental"`
	WarmFull        obs.HistSnapshot `json:"warm_full" prom:"warm_seconds,path=full"`
}

// WarmStats reports the warmer's counters; see the WarmStats type.
func (s *Server) WarmStats() WarmStats {
	return WarmStats{
		Measures:     s.warmed,
		Started:      s.ctr.warmsStarted.Load(),
		Completed:    s.ctr.warmsCompleted.Load(),
		Cancelled:    s.ctr.warmsCancelled.Load(),
		Hits:         s.ctr.warmHits.Load(),
		Misses:       s.ctr.coldMisses.Load(),
		Incremental:  s.ctr.warmsIncremental.Load(),
		FullFallback: s.ctr.warmsFullFallback.Load(),
		Dirty:        s.ctr.dirty.Snapshot(),
		RankCarried:  s.ctr.rankCarried.Load(),
		RankSorted:   s.ctr.rankSorted.Load(),

		WarmIncremental: s.ctr.warmIncrementalNS.Snapshot(),
		WarmFull:        s.ctr.warmFullNS.Snapshot(),
	}
}

// RebuildStats counts publishes by the path their bipartite.RebuildDiff
// took, and is the declaration of the rebuild section of /metrics.
// Unchanged is an update that left the attributes as they were, so the
// previous graph stays (a nil Diff), and also a first publish seeded with an
// Options.Graph that matches the lake; Full is a from-scratch build, an
// unseeded first one included; Incremental is the rest. Publish times each
// publish (the benchmark's serve.publish stage): the new tables'
// normalization, the rebuild, the swap and the AfterPublish hook; its count
// is the sum of the three paths.
type RebuildStats struct {
	Unchanged   int64            `json:"unchanged" prom:"rebuild_paths_total,path=unchanged"`
	Full        int64            `json:"full" prom:"rebuild_paths_total,path=full"`
	Incremental int64            `json:"incremental" prom:"rebuild_paths_total,path=incremental"`
	Publish     obs.HistSnapshot `json:"publish" prom:"publish_seconds"`
}

// RebuildStats reports the rebuild path counters; see the RebuildStats type.
func (s *Server) RebuildStats() RebuildStats {
	return RebuildStats{
		Unchanged:   s.ctr.rebuildUnchanged.Load(),
		Full:        s.ctr.rebuildFull.Load(),
		Incremental: s.ctr.rebuildIncremental.Load(),
		Publish:     s.ctr.publishNS.Snapshot(),
	}
}

// measure resolves the optional ?measure= query value against the server's
// default, writing a 400 and returning false on unknown names.
func (s *Server) measure(w http.ResponseWriter, name string) (domainnet.Measure, bool) {
	if name == "" {
		return s.cfg.Measure, true
	}
	m, ok := domainnet.ParseMeasure(name)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown measure %q", name))
		return 0, false
	}
	return m, true
}

type scoredJSON struct {
	Value string  `json:"value"`
	Score float64 `json:"score"`
}

func toScoredJSON(in []rank.Scored) []scoredJSON {
	out := make([]scoredJSON, len(in))
	for i, s := range in {
		out[i] = scoredJSON{Value: s.Value, Score: s.Score}
	}
	return out
}

// handleTopK serves the ranking head. It is the read hot path, so it avoids
// per-request work wherever the snapshot's immutability allows: the query is
// parsed without allocating, the encoded response is cached per (measure, k)
// on the snapshot, and a request presenting the entry's ETag back through
// If-None-Match is answered 304 with no body. A router-fronted fleet serving
// repeat queries does a few header writes per request and nothing else.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, sn *snapshot) {
	a := obs.ActiveFrom(w)
	sp := a.StartSpan("parse")
	mname, kstr, fast := fastTopKQuery(r.URL.RawQuery)
	if !fast {
		q := r.URL.Query()
		mname, kstr = q.Get("measure"), q.Get("k")
	}
	m, ok := s.measure(w, mname)
	if !ok {
		return
	}
	k := 50
	if kstr != "" {
		var err error
		if k, err = strconv.Atoi(kstr); err != nil || k < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid k %q", kstr))
			return
		}
	}
	sp.End()
	e := sn.topk.load(topkKey{m, k})
	if e != nil {
		// The entry exists only because a previous request computed the
		// ranking, so a cache hit is by definition a warm read.
		s.ctr.warmHits.Add(1)
	} else {
		e = s.encodeTopK(a, sn, m, k)
	}
	h := w.Header()
	h.Set("ETag", e.etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, e.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(e.body) //nolint:errcheck // the response is already committed
}

// encodeTopK computes and encodes one /topk response and installs it in the
// snapshot's cache. The bytes are identical to what writeJSON would have
// produced, so cached and uncached responses are indistinguishable on the
// wire (process-restart and replica-equality tests compare them directly).
func (s *Server) encodeTopK(a *obs.Active, sn *snapshot, m domainnet.Measure, k int) *topkEntry {
	d := sn.detector(m, s.cfg)
	if d.Ready() {
		s.ctr.warmHits.Add(1)
	} else {
		s.ctr.coldMisses.Add(1)
	}
	sp := a.StartSpan("score")
	top := d.TopK(k)
	sp.End()
	sp = a.StartSpan("encode")
	defer sp.End()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ //nolint:errcheck // in-memory encode of plain data
		"version": sn.version,
		"measure": m.String(),
		"k":       len(top),
		"results": toScoredJSON(top),
	})
	return sn.topk.store(topkKey{m, k}, &topkEntry{body: buf.Bytes(), etag: topkETag(sn.version, m, k)})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request, sn *snapshot) {
	q := r.URL.Query()
	m, ok := s.measure(w, q.Get("measure"))
	if !ok {
		return
	}
	raw := q.Get("value")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing value parameter")
		return
	}
	v := table.Normalize(raw)
	d := sn.detector(m, s.cfg)
	if d.ScoresReady() { // a point lookup needs only the score cache
		s.ctr.warmHits.Add(1)
	} else {
		s.ctr.coldMisses.Add(1)
	}
	sp := obs.ActiveFrom(w).StartSpan("score")
	score, found := d.Score(v)
	sp.End()
	writeJSON(w, http.StatusOK, map[string]any{
		"version": sn.version,
		"measure": m.String(),
		"value":   v,
		"score":   score,
		"found":   found,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, sn *snapshot) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version": sn.version,
		"lake": map[string]int{
			"tables":     sn.stats.Tables,
			"attributes": sn.stats.Attributes,
			"values":     sn.stats.Values,
			"cells":      sn.stats.Cells,
		},
		"graph": map[string]int{
			"value_nodes": sn.graph.NumValues(),
			"attr_nodes":  sn.graph.NumAttrs(),
			"edges":       sn.graph.NumEdges(),
		},
		"server": map[string]int64{
			"publishes": s.Publishes(),
		},
	})
}

func (s *Server) handleScorers(w http.ResponseWriter, r *http.Request, _ *snapshot) {
	writeJSON(w, http.StatusOK, map[string]any{
		"default":  s.cfg.Measure.String(),
		"measures": domainnet.MeasureNames(),
		"scorers":  domainnet.Scorers(),
	})
}

// Metrics is the /metrics body and the one declaration of its series: the
// json tags name the JSON view and the prom tags the Prometheus view that
// ?format=prom renders from the same struct (see obs.WriteMetrics).
type Metrics struct {
	Version   uint64                         `json:"version" prom:"domainnet_snapshot_version"`
	Publishes int64                          `json:"publishes" prom:"domainnet_publishes_total"`
	Warm      WarmStats                      `json:"warm" prom:"domainnet_"`
	Rebuilds  RebuildStats                   `json:"rebuilds" prom:"domainnet_"`
	Endpoints map[string]obs.EndpointMetrics `json:"endpoints" prom:"domainnet_"`
	Runtime   obs.RuntimeStats               `json:"runtime" prom:"domainnet_"`
	Tracer    obs.TracerStats                `json:"tracer" prom:"domainnet_"`
	// Replication is Options.Replication's view: a follower's status or a
	// leader's snapshot encode stats.
	Replication any `json:"replication,omitempty" prom:"domainnet_replication_"`
}

// handleMetrics serves the Metrics view. It is the observability face of the
// warm pipeline: warm.cancelled rising under churn is the warmer shedding
// superseded work, and warm.misses rising is reads arriving before their
// cache was warm. The reported version is sn's, the one in the header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, sn *snapshot) {
	m := Metrics{
		Version:   sn.version,
		Publishes: s.Publishes(),
		Warm:      s.WarmStats(),
		Rebuilds:  s.RebuildStats(),
		Endpoints: s.obs.Metrics(),
		Runtime:   obs.ReadRuntime(),
		Tracer:    s.tracer.Stats(),
	}
	if s.replication != nil {
		m.Replication = s.replication()
	}
	obs.WriteMetrics(w, r, m)
}

// Apply performs one batch mutation — remove the named tables, then add the
// given ones — as a single burst with one publish, instead of the N publishes
// (N incremental rebuilds, N ranking invalidations) that N single-table
// calls would cost. It is all-or-nothing: every removal target must exist
// and no added name may collide (with the lake or within the batch), checked
// before any mutation, so a failed Apply leaves the lake untouched. Returns
// the lake version after the batch, which the server serves by then.
func (s *Server) Apply(add []*table.Table, remove []string) (uint64, error) {
	return s.withWrite(func() error {
		v := s.lake.Version()
		return s.apply(&Mutation{PrevVersion: v, Version: v + uint64(len(remove)+len(add)), Remove: remove, Add: add}, s.onCommit)
	})
}

// Replay applies logged bursts (a follower's change feed) in order under
// the write lock, then publishes once. Each passes Apply's checks, without
// OnCommit: it is logged already. A refused burst leaves the lake at the
// last whole burst before it, published, and Replay says why.
func (s *Server) Replay(recs ...*Mutation) error {
	_, err := s.withWrite(func() error { return s.replay(recs) })
	return err
}

// replay applies logged bursts in order, stopping at the first refused one.
// Callers hold writeMu (or are Recover).
func (s *Server) replay(recs []*Mutation) error {
	for _, m := range recs {
		if err := s.apply(m, nil); err != nil {
			return fmt.Errorf("burst %d→%d: %w", m.PrevVersion, m.Version, err)
		}
	}
	return nil
}

// apply is the one way a burst reaches the lake. Before any mutation it
// checks that m applies at the lake's version with one version per table,
// and that its tables are valid and its names free or present as needed.
// A non-nil commit (the write-ahead hook) sees it next and can abort it.
// Then the removals, the adds, and a check of the version reached. Callers
// hold writeMu.
func (s *Server) apply(m *Mutation, commit func(Mutation) error) error {
	if v := s.lake.Version(); m.PrevVersion != v || m.Version != v+uint64(len(m.Remove)+len(m.Add)) {
		return fmt.Errorf("burst stamped %d→%d with %d mutations does not apply at lake version %d",
			m.PrevVersion, m.Version, len(m.Remove)+len(m.Add), v)
	}
	// The burst's names overlay the lake's: the check costs the burst's size.
	overlay := make(map[string]bool, len(m.Remove)+len(m.Add))
	present := func(name string) bool {
		if p, ok := overlay[name]; ok {
			return p
		}
		return s.lake.Has(name)
	}
	for _, name := range m.Remove {
		if !present(name) {
			return fmt.Errorf("%w %q", ErrNotFound, name)
		}
		overlay[name] = false
	}
	for _, t := range m.Add {
		if err := t.Validate(); err != nil {
			return err
		}
		if present(t.Name) {
			return fmt.Errorf("%w %q", ErrConflict, t.Name)
		}
		overlay[t.Name] = true
	}
	if commit != nil {
		if err := commit(*m); err != nil {
			return fmt.Errorf("commit log: %w", err)
		}
	}
	for _, name := range m.Remove {
		s.lake.RemoveTable(name)
	}
	for _, t := range m.Add {
		if err := s.lake.Add(t); err != nil {
			return err // unreachable: names pre-checked, tables validated
		}
	}
	if v := s.lake.Version(); v != m.Version {
		return fmt.Errorf("burst left the lake at version %d", v)
	}
	return nil
}

// rejectReadOnly writes the follower-mode 403 and reports whether the
// request was rejected.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if s.readOnly {
		writeError(w, http.StatusForbidden, "read-only replica: send mutations to the leader")
	}
	return s.readOnly
}

func (s *Server) handleAddTable(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	t, err := table.ReadCSV(name, http.MaxBytesReader(w, r.Body, maxUpload))
	if err != nil {
		// errorStatus distinguishes an oversized body (413, the reader hit
		// the MaxBytesReader limit) from a malformed one (400).
		writeError(w, errorStatus(err), err.Error())
		return
	}
	version, err := s.Apply([]*table.Table{t}, nil)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"version": version,
		"table":   name,
		"columns": t.NumColumns(),
		"rows":    t.NumRows(),
	})
}

// handleBatchAdd ingests many tables in one request — multipart/form-data,
// one CSV file per part, table-named by the part's filename (without the
// .csv extension) or form field name — and publishes exactly once.
func (s *Server) handleBatchAdd(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	mediaType, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || !strings.HasPrefix(mediaType, "multipart/") {
		writeError(w, http.StatusBadRequest,
			"batch ingest expects multipart/form-data with one CSV file per part (use POST /tables/{name} for a single raw CSV)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxUpload)
	mr := multipart.NewReader(r.Body, params["boundary"])
	var tables []*table.Table
	for partIdx := 1; ; partIdx++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A body that outgrew MaxBytesReader surfaces here too: 413.
			writeError(w, errorStatus(err), err.Error())
			return
		}
		name := strings.TrimSuffix(filepath.Base(part.FileName()), filepath.Ext(part.FileName()))
		if name == "" || name == "." {
			name = part.FormName()
		}
		if name == "" || name == "." {
			// Without a usable name this would become a table named "" and
			// fail downstream validation with a message that never says which
			// part was at fault. Reject it here, by position.
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"batch part %d has neither a filename nor a form field name to use as its table name", partIdx))
			return
		}
		t, err := table.ReadCSV(name, part)
		if err != nil {
			writeError(w, errorStatus(err), err.Error())
			return
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		writeError(w, http.StatusBadRequest, "batch contains no tables")
		return
	}
	version, err := s.Apply(tables, nil)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	added := make([]map[string]any, len(tables))
	for i, t := range tables {
		added[i] = map[string]any{
			"table":   t.Name,
			"columns": t.NumColumns(),
			"rows":    t.NumRows(),
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"version": version,
		"count":   len(tables),
		"tables":  added,
	})
}

func (s *Server) handleRemoveTable(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	version, err := s.Apply(nil, []string{name})
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": version,
		"table":   name,
	})
}

// errorStatus maps mutation and upload errors to HTTP status codes.
func errorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &tooLarge):
		// The body hit the MaxBytesReader cap. table.ReadCSV wraps the
		// reader's error with %w, so it unwraps to the typed limit error —
		// an oversized upload, not a malformed one.
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
