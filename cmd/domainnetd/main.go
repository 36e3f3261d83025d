// Command domainnetd serves homograph detection over HTTP: a zero-dependency
// daemon holding one in-memory data lake, answering reads from an immutable
// snapshot while table uploads rebuild the DomainNet graph incrementally.
//
// Usage:
//
//	domainnetd [-addr :8080] [-dir path/to/lake] [-name lake]
//	           [-snapshot lake.snapshot] [-checkpoint-every 0] [-wal path/to/wal]
//	           [-follow http://leader:8080]
//	           [-measure bc|bc-exact|bc-eps|lcc|lcc-attr|degree|harmonic]
//	           [-warm-measures bc,lcc] [-samples 0] [-seed 1] [-workers 0]
//	           [-keep-singletons] [-trace-slow 50ms] [-debug-addr localhost:6060]
//
// Endpoints:
//
//	GET    /topk?k=50&measure=bc   top homograph candidates of the snapshot
//	GET    /score?value=jaguar     one value's score (normalized lookup)
//	GET    /stats                  lake and graph statistics + version
//	GET    /scorers                available measures
//	GET    /metrics                per-endpoint latency percentiles, runtime,
//	                               warmer and replication telemetry
//	                               (?format=prom for Prometheus)
//	GET    /debug/traces           captured slow-request traces with named spans
//	POST   /tables                 batch-add tables (multipart, CSV per part)
//	POST   /tables/{name}          add a table (request body: CSV)
//	DELETE /tables/{name}          remove a table
//	GET    /repl/changes?from=V    replication change feed (leader, with -wal)
//	GET    /repl/snapshot?chunked=1  replication state transfer (leader, with -wal)
//
// Reads never block on writes: each response is served from the snapshot
// current when it arrived, stamped with the lake version it reflects.
//
// Durability: with -snapshot set, the daemon warm-starts from the snapshot
// file when it exists and checkpoints back to it on graceful shutdown
// (SIGINT/SIGTERM) and, with -checkpoint-every K, after every K-th publish.
// With -wal set, every acknowledged mutation burst is appended (and fsynced)
// to a segmented write-ahead log *before* it is applied, so recovery loses
// nothing even on kill -9 or power failure. Recovery treats the restarting
// leader as a lagging follower of its own log: serve.Recover applies every
// logged burst past the snapshot's version to the snapshot's lake, with the
// checks a follower's change feed passes, and then publishes once,
// rebuilding from the snapshot's graph. Each successful checkpoint truncates
// the segments it made obsolete.
// Without -wal, a crash loses the mutations since the last checkpoint;
// without either flag, the lake is memory-only.
//
// Pre-warming: every publish schedules a background precompute of the
// -measure ranking on the new snapshot, plus any measures -warm-measures
// adds (a newer publish cancels the superseded warm), so the first read
// after a mutation does not pay the centrality recompute inline; GET
// /metrics shows the counters.
//
// Replication: -wal also enables the leader endpoints under /repl/.
// A replica runs `domainnetd -follow http://leader:8080`: it bootstraps from
// the leader's snapshot stream, tails the change feed (long-poll), applies
// the bursts of each poll with one serve.Server.Replay, through the checks
// and mutation code the leader's writes take and one incremental rebuild,
// and serves reads at the leader's versions; its own mutation endpoints
// answer 403. A replica that
// falls behind the leader's truncated log re-bootstraps from the snapshot
// stream automatically.
//
// Observability: every request books into a lock-free latency histogram, so
// GET /metrics reports p50/p95/p99 per endpoint next to the warmer, runtime,
// tracer and (on a replica) replication counters, as JSON or, with
// ?format=prom, Prometheus text: both render serve.Metrics, so they carry
// the same series. Requests slower than -trace-slow (default 50ms; a
// negative value captures everything — a test and debugging mode) are
// captured with named spans into a bounded ring served by GET /debug/traces.
// -debug-addr exposes net/http/pprof on a separate listener with its own
// mux, so the profiling surface never rides the public address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/obs"
	"domainnet/internal/persist"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// config is the parsed command line. Split from main so flag validation is
// unit-testable and process tests can drive the daemon end to end.
type config struct {
	addr            string
	dir             string
	name            string
	snapshot        string
	walDir          string
	follow          string
	checkpointEvery int
	measure         domainnet.Measure
	warmMeasures    []domainnet.Measure
	samples         int
	seed            int64
	workers         int
	keep            bool
	traceSlow       time.Duration
	debugAddr       string
}

// parseFlags parses and validates args (without the program name). It fails
// fast on contradictory flag combinations instead of silently ignoring the
// loser — a daemon that drops the durability flags an operator asked for is
// worse than one that refuses to start.
func parseFlags(args []string) (*config, error) {
	c := &config{}
	var measure, warmMeasures string
	fs := flag.NewFlagSet("domainnetd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dir, "dir", "", "directory of CSV tables to pre-load (ignored when -snapshot exists; empty starts an empty lake)")
	fs.StringVar(&c.name, "name", "lake", "lake name when starting empty")
	fs.StringVar(&c.snapshot, "snapshot", "", "snapshot file: warm-start from it when present, checkpoint to it on shutdown")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 0, "also checkpoint after every K publishes (0 = only on shutdown; needs -snapshot)")
	fs.StringVar(&c.walDir, "wal", "", "write-ahead log directory: fsync every mutation burst before acknowledging it, replay on startup, serve /repl/ to followers")
	fs.StringVar(&c.follow, "follow", "", "run as a read-only replica of the leader at this base URL (conflicts with the mutation/durability flags)")
	fs.StringVar(&measure, "measure", "bc", "default scoring measure")
	fs.StringVar(&warmMeasures, "warm-measures", "", "comma-separated measures to pre-warm in the background after every publish, in addition to -measure, which is always warmed")
	fs.IntVar(&c.samples, "samples", 0, "approximate-BC sample count (0 = 1% of nodes)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed for sampling")
	fs.IntVar(&c.workers, "workers", 0, "parallelism for graph build and scoring (0 = all CPUs)")
	fs.BoolVar(&c.keep, "keep-singletons", false, "keep values occurring only once")
	fs.DurationVar(&c.traceSlow, "trace-slow", 0, "capture traces for requests slower than this (0 = 50ms default; negative captures every request)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty disables; keep it off public interfaces)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	m, ok := domainnet.ParseMeasure(measure)
	if !ok {
		return nil, fmt.Errorf("unknown measure %q (valid: %s)",
			measure, strings.Join(domainnet.MeasureNames(), ", "))
	}
	c.measure = m
	if warmMeasures != "" {
		for _, name := range strings.Split(warmMeasures, ",") {
			name = strings.TrimSpace(name)
			wm, ok := domainnet.ParseMeasure(name)
			if !ok {
				return nil, fmt.Errorf("-warm-measures: unknown measure %q (valid: %s)",
					name, strings.Join(domainnet.MeasureNames(), ", "))
			}
			c.warmMeasures = append(c.warmMeasures, wm)
		}
	}
	if c.checkpointEvery < 0 {
		return nil, fmt.Errorf("-checkpoint-every must be non-negative, got %d", c.checkpointEvery)
	}
	if c.checkpointEvery > 0 && c.snapshot == "" {
		return nil, errors.New("-checkpoint-every requires -snapshot (there is nowhere to checkpoint to)")
	}
	if c.walDir != "" && c.dir != "" && c.snapshot == "" {
		// Recovery would replay the log onto whatever the CSV directory
		// happens to contain at restart — an edited file with an unchanged
		// table count passes every version-chain check and yields silently
		// diverged state. A snapshot gives replay a stable base.
		return nil, errors.New("-wal with -dir requires -snapshot (recovery must replay onto the checkpointed base, not the CSV directory's current contents)")
	}
	if c.follow != "" {
		for flagName, set := range map[string]bool{
			"-dir":              c.dir != "",
			"-snapshot":         c.snapshot != "",
			"-wal":              c.walDir != "",
			"-checkpoint-every": c.checkpointEvery > 0,
		} {
			if set {
				return nil, fmt.Errorf("-follow runs a read-only replica that bootstraps from its leader; it conflicts with %s", flagName)
			}
		}
		explicit := map[string]bool{}
		fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
		if explicit["keep-singletons"] {
			// Silently ignoring it would be worse than refusing: the
			// replica adopts the leader's graph semantics so its state
			// stays bit-identical.
			return nil, errors.New("-keep-singletons has no effect with -follow (the replica adopts the leader's setting)")
		}
	}
	return c, nil
}

func (c *config) detectorConfig() domainnet.Config {
	return domainnet.Config{
		Measure:        c.measure,
		Samples:        c.samples,
		Seed:           c.seed,
		Workers:        c.workers,
		KeepSingletons: c.keep,
	}
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "domainnetd:", err)
		}
		os.Exit(2)
	}
	if err := run(c); err != nil {
		log.Fatal(err)
	}
}

func run(c *config) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if c.debugAddr != "" {
		if err := startDebugServer(c.debugAddr, "domainnetd"); err != nil {
			return err
		}
	}
	if c.follow != "" {
		return runFollower(ctx, c, stop)
	}
	return runLeader(ctx, c, stop)
}

// startDebugServer exposes net/http/pprof on its own listener with a
// manually built mux. The profiling surface never registers on the public
// handler: it can dump heap contents and stall the process with profiles,
// so it binds only where the operator explicitly points -debug-addr.
func startDebugServer(addr, name string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // debug-only listener, dies with the process
	log.Printf("%s: debug (pprof) listening on %s", name, ln.Addr())
	return nil
}

// serveUntilShutdown listens on c.addr, serves handler, and drains on
// SIGINT/SIGTERM. It logs the bound address ("listening on …"), which is
// how process-level tests using port 0 discover the daemon. stop restores
// the default signal disposition once shutdown begins, so a second signal
// force-kills a daemon stuck draining or checkpointing instead of being
// swallowed.
func serveUntilShutdown(ctx context.Context, c *config, stop func(), handler http.Handler, banner string) error {
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("domainnetd: listening on %s", ln.Addr())
	log.Print(banner)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Print("domainnetd: shutting down (again to force)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("domainnetd: shutdown: %v", err)
	}
	return nil
}

func runLeader(ctx context.Context, c *config, stop func()) error {
	// Warm start: a snapshot file beats -dir. It pins the lake state the WAL
	// chains from, and it loads already normalized: persist.Load runs the
	// one graph build (bipartite.FromAttributes) over its attributes, and
	// the serving layer adopts that graph instead of building a second.
	var l *lake.Lake
	var warmGraph *bipartite.Graph
	snapshotLoaded := false
	if c.snapshot != "" {
		switch sn, err := persist.Load(c.snapshot); {
		case err == nil:
			l, warmGraph = sn.Lake, sn.Graph
			snapshotLoaded = true
			if warmGraph != nil && warmGraph.KeepsSingletons() != c.keep {
				// A flag change voiding the snapshot's graph costs the restart
				// a second full build, and the operator should see why.
				log.Printf("domainnetd: snapshot graph was built with keep-singletons=%v but -keep-singletons=%v; discarding it and cold-building",
					warmGraph.KeepsSingletons(), c.keep)
				warmGraph = nil
			}
			log.Printf("domainnetd: warm start from %s (lake %q, %d tables, version %d, graph %v)",
				c.snapshot, l.Name, l.NumTables(), l.Version(), warmGraph != nil)
		case errors.Is(err, os.ErrNotExist):
			log.Printf("domainnetd: %s absent, cold start (will checkpoint there)", c.snapshot)
		default:
			return err
		}
	}
	dirLoaded := false
	if l == nil {
		if c.dir != "" {
			var err error
			if l, err = lake.LoadDir(c.dir); err != nil {
				return err
			}
			dirLoaded = true
		} else {
			l = lake.New(c.name)
		}
	}

	// The write-ahead log: every future burst goes through the leader's
	// OnCommit, and what outlived the last checkpoint is replayed below.
	// Recovery: a restarting leader is a lagging follower of its own log,
	// whose tail past the snapshot serve.Recover applies before publishing.
	var wlog *wal.Log
	var leader *repl.Leader
	var tail []*serve.Mutation
	if c.walDir != "" {
		if c.snapshot == "" {
			// Legal — the WAL alone is full durability (recovery replays
			// the whole history from an empty lake) — but nothing ever
			// retires old segments without a checkpoint to truncate against,
			// so the log and recovery time grow with every mutation.
			log.Print("domainnetd: -wal without -snapshot: the log grows unbounded and restarts replay all of history; add -snapshot -checkpoint-every to retire old segments")
		}
		var err error
		if wlog, err = wal.Open(c.walDir, wal.Options{}); err != nil {
			return err
		}
		defer func() {
			if cerr := wlog.Close(); cerr != nil {
				log.Printf("domainnetd: closing wal: %v", cerr)
			}
		}()
		if _, _, hasHistory := wlog.Bounds(); hasHistory && dirLoaded {
			// The log's records chain from the lake state that existed when
			// they were committed — which was pinned by a snapshot, not by
			// the CSV directory, whose contents may have changed since. An
			// edited CSV with an unchanged table count would pass every
			// version-chain check and replay into silently diverged state.
			return fmt.Errorf("domainnetd: %s contains history but the snapshot %s is missing, leaving only the mutable CSV directory as a replay base; restore the snapshot file (or move the wal directory aside to discard its history)",
				c.walDir, c.snapshot)
		}
		leader = repl.NewLeader(wlog)
		if tail, err = wlog.Replay(l.Version()); err != nil {
			return err
		}
	}

	// The periodic checkpointer: AfterPublish signals (non-blocking, write
	// lock held) and a goroutine persists outside the hot path.
	ckpt := make(chan struct{}, 1)
	var opts serve.Options
	opts.Graph = warmGraph
	opts.WarmMeasures = c.warmMeasures
	opts.Tracer = &obs.Tracer{SlowThreshold: c.traceSlow}
	if leader != nil {
		opts.OnCommit = leader.OnCommit
		opts.Replication = func() any { return leader.Stats() }
	}
	if c.checkpointEvery > 0 {
		var writes int
		opts.AfterPublish = func(uint64) {
			writes++
			if writes%c.checkpointEvery == 0 {
				select {
				case ckpt <- struct{}{}:
				default: // a checkpoint is already pending; coalesce
				}
			}
		}
	}

	s, err := serve.Recover(l, c.detectorConfig(), opts, tail)
	if err != nil {
		return fmt.Errorf("domainnetd: wal replay (snapshot and log disagree): %w", err)
	}
	if len(tail) > 0 {
		log.Printf("domainnetd: replayed %d wal burst(s), lake at version %d", len(tail), s.Version())
	}
	if leader != nil {
		leader.Attach(s)
	}

	// Checkpoints encode the published snapshot's frozen lake, so writers
	// never wait on a checkpoint, neither its marshal nor its I/O. ckptMu
	// keeps a slow periodic write from racing the shutdown checkpoint. A
	// durable checkpoint retires the WAL segments it covers, up to the
	// published version it wrote.
	var ckptMu sync.Mutex
	checkpoint := func(reason string) error {
		if c.snapshot == "" {
			return nil
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		var buf []byte
		var version uint64
		if err := s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			version = l.Version()
			buf = persist.Marshal(l, g)
			return nil
		}); err != nil {
			log.Printf("domainnetd: checkpoint (%s) failed: %v", reason, err)
			return err
		}
		if err := persist.WriteFile(c.snapshot, buf); err != nil {
			log.Printf("domainnetd: checkpoint (%s) failed: %v", reason, err)
			return err
		}
		if wlog != nil {
			if err := wlog.Truncate(version); err != nil {
				log.Printf("domainnetd: wal truncate after checkpoint: %v", err)
			}
		}
		log.Printf("domainnetd: checkpointed %s at version %d (%s)", c.snapshot, version, reason)
		return nil
	}
	if c.snapshot != "" && !snapshotLoaded {
		// Pin the cold-start base durably before the first WAL record can
		// chain on top of it: a crash before any other checkpoint must
		// recover by replaying onto this exact state, never onto whatever
		// the CSV directory contains at restart time.
		if err := checkpoint("initial"); err != nil {
			return err
		}
	}
	go func() {
		for range ckpt {
			checkpoint("periodic") //nolint:errcheck // logged inside; retried next signal
		}
	}()

	if err := serveUntilShutdown(ctx, c, stop, s,
		fmt.Sprintf("domainnetd: serving lake %q (%d tables, snapshot version %d, wal %v)",
			l.Name, l.NumTables(), s.Version(), wlog != nil)); err != nil {
		return err
	}
	s.Close()              // stop any in-flight warm; the checkpoint needs the CPU
	checkpoint("shutdown") //nolint:errcheck // logged inside; nothing left to retry
	return nil
}

func runFollower(ctx context.Context, c *config, stop func()) error {
	f := &repl.Follower{
		Leader:       strings.TrimRight(c.follow, "/"),
		Config:       c.detectorConfig(),
		WarmMeasures: c.warmMeasures,
		Client:       &http.Client{Timeout: repl.PollTimeout + 15*time.Second},
		Logf:         log.Printf,
		Tracer:       &obs.Tracer{SlowThreshold: c.traceSlow},
	}
	go f.Run(ctx) //nolint:errcheck // exits with ctx; errors are logged via Logf
	return serveUntilShutdown(ctx, c, stop, f,
		fmt.Sprintf("domainnetd: read-only replica of %s", f.Leader))
}
