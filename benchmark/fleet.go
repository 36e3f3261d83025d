package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/repl"
	"domainnet/internal/router"
	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// fleetOpts shapes an in-process fleet.
type fleetOpts struct {
	measure   domainnet.Measure
	warm      bool // every process warms measure after each publish
	followers int
	router    bool
}

// fleet is a leader with its WAL and replication endpoints, followers
// tailing it, and optionally the read-router in front — each on its own
// loopback listener, exactly as the daemons wire them.
type fleet struct {
	cfg       domainnet.Config
	leader    *serve.Server
	log       *wal.Log
	walDir    string
	followers []*repl.Follower
	router    *router.Router

	leaderURL    string
	followerURLs []string
	routerURL    string

	hooks     *writeHooks // traced runs only
	ejections atomic.Int64

	cancel  context.CancelFunc
	servers []*http.Server
	wg      sync.WaitGroup // listeners and the follower and router loops
}

// startFleet writes the SB lake as CSVs under dir, loads it into a leader,
// and brings up the followers and router, returning once every follower is
// at the leader's version, every warm has finished, and the router has
// admitted every follower.
func startFleet(cfg config, dir string, sb *datagen.SB, fo fleetOpts, tr *tracer) (*fleet, error) {
	lakeDir := filepath.Join(dir, "lake")
	if err := sb.Lake.SaveDir(lakeDir); err != nil {
		return nil, err
	}
	l, err := lake.LoadDir(lakeDir)
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: domainnet.Config{Measure: fo.measure}, walDir: filepath.Join(dir, "wal")}
	// Production durability: one fsync per commit.
	if f.log, err = wal.Open(f.walDir, wal.Options{}); err != nil {
		return nil, err
	}
	ld := repl.NewLeader(f.log)
	opts := serve.Options{OnCommit: ld.OnCommit}
	var warm []domainnet.Measure
	if fo.warm {
		warm = []domainnet.Measure{fo.measure}
		opts.WarmMeasures = warm
	}
	if d := cfg.commitDelay; d > 0 {
		next := opts.OnCommit
		opts.OnCommit = func(m serve.Mutation) error {
			time.Sleep(d)
			return next(m)
		}
	}
	if tr != nil {
		f.hooks = &writeHooks{tr: tr, inflight: map[string]spanRef{}, published: map[uint64]time.Time{}}
		opts.OnCommit = f.hooks.onCommit(opts.OnCommit)
		opts.AfterPublish = f.hooks.afterPublish
	}
	f.leader = serve.NewWithOptions(l, f.cfg, opts)
	ld.Attach(f.leader)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel

	var leaderH http.Handler = f.leader
	if tr != nil {
		leaderH = tr.wrap(leaderH, serveSpanName, f.hooks.before)
	}
	if f.leaderURL, err = f.listen(leaderH); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < fo.followers; i++ {
		fw := &repl.Follower{Leader: f.leaderURL, Config: f.cfg, WarmMeasures: warm}
		f.followers = append(f.followers, fw)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			fw.Run(ctx) //nolint:errcheck // returns ctx.Err() once the fleet closes
		}()
		var h http.Handler = fw
		if tr != nil {
			h = tr.wrap(h, serveSpanName, nil)
		}
		u, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.followerURLs = append(f.followerURLs, u)
	}
	if err := f.settle(30 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	if fo.router {
		if err := f.startRouter(ctx, tr); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) startRouter(ctx context.Context, tr *tracer) error {
	rt, err := router.New(router.Options{Leader: f.leaderURL, Replicas: f.followerURLs,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "router: ejected") {
				f.ejections.Add(1)
			}
		}})
	if err != nil {
		return err
	}
	f.router = rt
	for deadline := time.Now().Add(10 * time.Second); rt.Status().Admitted < len(f.followers); {
		if time.Now().After(deadline) {
			return fmt.Errorf("router admitted %d of %d followers", rt.Status().Admitted, len(f.followers))
		}
		rt.CheckNow(ctx)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		rt.Run(ctx) //nolint:errcheck // returns ctx.Err() once the fleet closes
	}()
	var h http.Handler = rt
	if tr != nil {
		h = tr.wrap(h, func(*http.Request) string { return "router" }, nil)
	}
	f.routerURL, err = f.listen(h)
	return err
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed once the fleet closes
	}()
	return "http://" + ln.Addr().String(), nil
}

// servers returns the leader's and every follower's serving layer.
func (f *fleet) processes() []*serve.Server {
	out := []*serve.Server{f.leader}
	for _, fw := range f.followers {
		out = append(out, fw.Server())
	}
	return out
}

// settle waits until every follower serves the leader's version and no
// process has a warm in flight.
func (f *fleet) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if f.settled() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not settle within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fleet) settled() bool {
	v := f.leader.Version()
	for _, fw := range f.followers {
		if fw.Server() == nil || fw.Version() != v {
			return false
		}
	}
	for _, s := range f.processes() {
		if !warmIdle(s.WarmStats()) {
			return false
		}
	}
	return true
}

func warmIdle(ws serve.WarmStats) bool { return ws.Completed+ws.Cancelled == ws.Started }

// warmTotals sums the warm counters over every process.
func (f *fleet) warmTotals() serve.WarmStats {
	var t serve.WarmStats
	for _, s := range f.processes() {
		ws := s.WarmStats()
		t.Started += ws.Started
		t.Completed += ws.Completed
		t.Cancelled += ws.Cancelled
		t.Hits += ws.Hits
		t.Misses += ws.Misses
		t.Incremental += ws.Incremental
		t.FullFallback += ws.FullFallback
	}
	return t
}

// close stops the loops, closes every listener and connection, cancels the
// warms and waits for all of it to end.
func (f *fleet) close() {
	f.cancel()
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
	for _, s := range f.processes() {
		if s == nil {
			continue
		}
		s.Close()
		for deadline := time.Now().Add(10 * time.Second); !warmIdle(s.WarmStats()) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	if err := f.log.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: closing wal:", err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// serveSpanName names a backend span after the endpoint it served.
func serveSpanName(r *http.Request) string {
	switch {
	case r.URL.Path == "/topk":
		return "serve.topk"
	case r.URL.Path == "/score":
		return "serve.score"
	case strings.HasPrefix(r.URL.Path, "/tables/"):
		return "serve.write"
	default:
		return "serve.other"
	}
}

// spanRef identifies a recorded span.
type spanRef struct{ trace, id uint64 }

// writeHooks link the leader's OnCommit and AfterPublish hooks to the
// upload that caused them, by table name and then by version (the write
// path is serialized, so a burst's hooks run in order).
type writeHooks struct {
	tr        *tracer
	mu        sync.Mutex
	inflight  map[string]spanRef // table name → its upload's handler span
	committed []commitRef        // committed bursts not yet published
	published map[uint64]time.Time
}

type commitRef struct {
	version uint64
	ref     spanRef
	end     time.Time
}

func (h *writeHooks) before(r *http.Request, trace, id uint64) {
	if name, ok := strings.CutPrefix(r.URL.Path, "/tables/"); ok {
		h.mu.Lock()
		h.inflight[name] = spanRef{trace, id}
		h.mu.Unlock()
	}
}

// onCommit records the commit hook (WAL append, fsync, tail ring) as a
// "wal.commit" span below the upload that triggered it.
func (h *writeHooks) onCommit(next func(serve.Mutation) error) func(serve.Mutation) error {
	return func(m serve.Mutation) error {
		start := time.Now()
		err := next(m)
		end := time.Now()
		var name string
		switch {
		case len(m.Add) > 0:
			name = m.Add[0].Name
		case len(m.Remove) > 0:
			name = m.Remove[0]
		}
		h.mu.Lock()
		ref, ok := h.inflight[name]
		delete(h.inflight, name)
		if ok && err == nil {
			h.committed = append(h.committed, commitRef{m.Version, ref, end})
		}
		h.mu.Unlock()
		if ok {
			h.tr.add("wal.commit", h.tr.newID(), ref.trace, ref.id, start, end)
		}
		return err
	}
}

// afterPublish records, for each burst the publish covers, a "serve.publish"
// span from the end of its commit to the swap (mutate, rebuild, publish).
func (h *writeHooks) afterPublish(v uint64) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.published[v] = now
	keep := h.committed[:0]
	for _, c := range h.committed {
		if c.version > v {
			keep = append(keep, c)
			continue
		}
		h.tr.add("serve.publish", h.tr.newID(), c.ref.trace, c.ref.id, c.end, now)
	}
	h.committed = keep
}

// publishedAt is when the leader first published a version at or past v.
func (h *writeHooks) publishedAt(v uint64) (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var best uint64
	var at time.Time
	for pv, t := range h.published {
		if pv >= v && (at.IsZero() || pv < best) {
			best, at = pv, t
		}
	}
	return at, !at.IsZero()
}
