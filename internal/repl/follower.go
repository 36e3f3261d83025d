package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"domainnet/internal/domainnet"
	"domainnet/internal/obs"
	"domainnet/internal/persist"
	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// ErrBehindHorizon reports that the leader's log no longer reaches back to
// the follower's version; only a fresh snapshot bootstrap can resynchronize.
var ErrBehindHorizon = fmt.Errorf("repl: follower is behind the leader's log horizon")

// ErrDiverged reports that applying a delta did not reproduce the version
// the leader stamped on it — the replica's state can no longer be trusted
// and must be rebuilt from a snapshot.
var ErrDiverged = fmt.Errorf("repl: follower state diverged from the leader")

// retryDelay and maxRetryDelay bound the follower's exponential reconnect
// backoff: the first retry waits about retryDelay and each consecutive
// failure doubles the wait, up to maxRetryDelay.
const (
	retryDelay    = time.Second
	maxRetryDelay = 30 * time.Second
)

// Follower replicates a leader's lake: it bootstraps from /repl/snapshot
// (chunked, per-chunk-gzipped and resumable — a transfer torn at
// raw offset N re-requests from N instead of starting over), then tails
// /repl/changes, applying each poll's bursts with one serve.Server.Replay:
// the leader's checks and mutation code, then one publish for the backlog.
// So a replica skips the versions inside a poll, and is bit-identical to
// the leader at every version it serves. It implements
// http.Handler, serving the read endpoints from its current replica (503
// until the first bootstrap completes, except /repl/status, which always
// answers) and rejecting mutations (the replica server is read-only). A
// failed exchange is retried after about 1s, doubling per consecutive
// failure up to 30s, with jitter so a fleet that lost the same leader does
// not reconnect in lockstep.
type Follower struct {
	// Leader is the leader's base URL, e.g. "http://10.0.0.1:8080".
	Leader string
	// Config configures the replica's detector exactly like a primary's;
	// KeepSingletons must match the leader for the streamed graph to be
	// reusable (a mismatch falls back to a local cold build).
	Config domainnet.Config
	// Client overrides the package's default client (whose timeout is
	// PollTimeout plus slack). Its Timeout must exceed the leader's poll
	// timeout or every idle long-poll turns into an error.
	Client *http.Client
	// Logf, when non-nil, receives operational events (bootstraps, resyncs,
	// retries). log.Printf fits.
	Logf func(format string, args ...any)
	// WarmMeasures adds measures to the replica's warm set, exactly like
	// serve.Options.WarmMeasures on a primary: every replica server warms
	// Config.Measure after each applied burst, and these measures too.
	WarmMeasures []domainnet.Measure
	// Tracer, when non-nil, is the slow-request tracer shared with every
	// installed replica server (and the follower's own /repl/status
	// handler). Nil gets a private zero-value tracer.
	Tracer *obs.Tracer

	// retryBase is the backoff's base, shrunk by tests to run fast; zero
	// means retryDelay.
	retryBase time.Duration

	// obsOnce latches the registry, the Tracer default and the instrumented
	// status handler, so a zero-value Follower still shares one registry
	// across every server it installs.
	obsOnce sync.Once
	statusH http.HandlerFunc
	// obs is the endpoint-accounting registry shared with every replica
	// server this follower installs. It outlives re-bootstraps: /metrics
	// counters survive snapshot re-installs.
	obs *obs.Endpoints

	srv atomic.Pointer[serve.Server]

	// leader packs the newest version observed on any leader response (a
	// high-water mark: responses can race each other), shifted left by one,
	// with bit 0 set while the most recent exchange got an answer. One word
	// keeps both halves consistent; see noteLeader.
	leader atomic.Uint64
	// Transfer counters and stage times of the most recent bootstrap (see
	// BootstrapStats).
	bootWire     atomic.Int64
	bootRaw      atomic.Int64
	bootResumes  atomic.Int64
	bootRestarts atomic.Int64
	bootFetch    atomic.Int64
	bootDecode   atomic.Int64
	bootInstall  atomic.Int64
}

// BootstrapStats describes the most recent bootstrap's transfer: how many
// framed bytes actually crossed the network for how many bytes of snapshot
// codec, and how often the transfer was resumed (stream torn mid-flight,
// picked up from the last whole chunk) or restarted (the leader's snapshot
// version moved, invalidating the partial download), and how long its
// stages took: fetch (every request, then the frames inflated in parallel),
// decode (persist.Unmarshal, the graph build included) and install (the
// replica server). Gauges: each bootstrap starts them from zero, and a stage
// reads zero until it has finished.
type BootstrapStats struct {
	WireBytes int64 `json:"wire_bytes" prom:"wire_bytes"`
	RawBytes  int64 `json:"raw_bytes" prom:"raw_bytes"`
	Resumes   int64 `json:"resumes" prom:"resumes"`
	Restarts  int64 `json:"restarts" prom:"restarts"`
	FetchNS   int64 `json:"fetch_ns" prom:"fetch_seconds"`
	DecodeNS  int64 `json:"decode_ns" prom:"decode_seconds"`
	InstallNS int64 `json:"install_ns" prom:"install_seconds"`
}

// BootstrapStats reports the most recent (or in-progress) bootstrap's
// transfer counters and stage times.
func (f *Follower) BootstrapStats() BootstrapStats {
	return BootstrapStats{
		WireBytes: f.bootWire.Load(),
		RawBytes:  f.bootRaw.Load(),
		Resumes:   f.bootResumes.Load(),
		Restarts:  f.bootRestarts.Load(),
		FetchNS:   f.bootFetch.Load(),
		DecodeNS:  f.bootDecode.Load(),
		InstallNS: f.bootInstall.Load(),
	}
}

// Status is the follower's health report, served at /repl/status: what the
// read-router probes to decide whether this replica is caught up enough to
// take traffic. It is also the replication section of the replica's
// /metrics, whose series its prom tags declare.
type Status struct {
	// State is "bootstrapping" until the first snapshot is installed, then
	// "serving".
	State string `json:"state" prom:"-"`
	// Version is the replica's applied version; zero before bootstrap.
	Version uint64 `json:"version" prom:"version"`
	// LeaderVersion is the newest version observed on any leader response;
	// zero until the first successful exchange.
	LeaderVersion uint64 `json:"leader_version" prom:"leader_version"`
	// Lag is LeaderVersion - Version when positive (bursts the replica has
	// not applied yet), else zero.
	Lag uint64 `json:"lag" prom:"lag"`
	// LeaderReachable reports whether the most recent exchange with the
	// leader got an answer (a refused connection or a torn stream did not).
	LeaderReachable bool           `json:"leader_reachable" prom:"leader_reachable"`
	Bootstrap       BootstrapStats `json:"bootstrap" prom:"bootstrap_"`
}

// Status reports the follower's current health.
func (f *Follower) Status() Status {
	leader := f.leader.Load()
	st := Status{
		State:           "serving",
		Version:         f.Version(),
		LeaderVersion:   leader >> 1,
		LeaderReachable: leader&1 == 1,
		Bootstrap:       f.BootstrapStats(),
	}
	if f.srv.Load() == nil {
		st.State = "bootstrapping"
	}
	if st.LeaderVersion > st.Version {
		st.Lag = st.LeaderVersion - st.Version
	}
	return st
}

// handleStatus serves /repl/status: the Status view as JSON, or with
// ?format=prom as Prometheus text.
func (f *Follower) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := f.Status()
	w.Header().Set(VersionHeader, strconv.FormatUint(st.Version, 10))
	obs.WriteMetrics(w, r, st)
}

// initObs latches the observability state: the follower's registry, a
// private tracer when none was injected, and the instrumented /repl/status
// handler. Safe on a zero-value Follower; everything it creates lives for
// the follower's lifetime, not a single replica server's.
func (f *Follower) initObs() {
	f.obsOnce.Do(func() {
		f.obs = &obs.Endpoints{}
		if f.Tracer == nil {
			f.Tracer = &obs.Tracer{}
		}
		f.statusH = obs.Instrumented(f.obs, f.Tracer, "repl_status", f.handleStatus)
	})
}

func (f *Follower) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// noteLeader records one exchange with the leader: h is its answer's header,
// or nil when the exchange failed (no answer, or a stream torn mid-transfer).
// An answer marks the leader reachable and raises the high-water version.
func (f *Follower) noteLeader(h http.Header) {
	var v uint64
	if h != nil {
		v, _ = strconv.ParseUint(h.Get(VersionHeader), 10, 64)
	}
	for {
		cur := f.leader.Load()
		next := cur &^ 1
		if h != nil {
			next = max(next, v<<1) | 1
		}
		if next == cur || f.leader.CompareAndSwap(cur, next) {
			return
		}
	}
}

// defaultClient backs zero-value Followers: its timeout comfortably
// outlives an idle long-poll yet still unsticks a half-open connection to a
// silently dead leader, which http.DefaultClient (no timeout) never would.
var defaultClient = &http.Client{Timeout: PollTimeout + 15*time.Second}

func (f *Follower) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return defaultClient
}

// snapshotClient derives the bootstrap client: the configured client's
// timeout is sized for the change feed's long-poll, and a whole-snapshot
// download of a large lake must not race it, or bootstrap would time out
// mid-stream on every attempt. Same transport, no overall deadline —
// cancellation comes from ctx.
func (f *Follower) snapshotClient() *http.Client {
	client := *f.client()
	client.Timeout = 0
	return &client
}

// Server returns the current replica server, or nil before the first
// successful bootstrap.
func (f *Follower) Server() *serve.Server { return f.srv.Load() }

// Version reports the replica's current version; zero before bootstrap.
func (f *Follower) Version() uint64 {
	if s := f.srv.Load(); s != nil {
		return s.Version()
	}
	return 0
}

// ServeHTTP serves reads from the current replica. /repl/status is answered
// directly — before bootstrap too, so a router probing a joining replica
// sees "bootstrapping" rather than an opaque 503.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/repl/status" {
		f.initObs()
		f.statusH(w, r)
		return
	}
	s := f.srv.Load()
	if s == nil {
		http.Error(w, "replica is bootstrapping from the leader", http.StatusServiceUnavailable)
		return
	}
	s.ServeHTTP(w, r)
}

// install replaces the replica with a decoded snapshot.
func (f *Follower) install(sn *persist.Snapshot) {
	// Replication promises bit-identical state at every version, so the
	// replica must score over the leader's graph semantics, not its own
	// configuration: adopt the streamed graph's KeepSingletons. Without
	// this, a mismatched flag would silently cold-build a different graph
	// under the same version stamps.
	cfg := f.Config
	if sn.Graph != nil && sn.Graph.KeepsSingletons() != cfg.KeepSingletons {
		f.logf("repl: adopting the leader's keep-singletons=%v (local config says %v)",
			sn.Graph.KeepsSingletons(), cfg.KeepSingletons)
		cfg.KeepSingletons = sn.Graph.KeepsSingletons()
	}
	f.initObs()
	srv := serve.NewWithOptions(sn.Lake, cfg,
		serve.Options{Graph: sn.Graph, ReadOnly: true, WarmMeasures: f.WarmMeasures,
			// Accounting, tracing and the replication section are the
			// follower's: they survive this replica being re-bootstrapped.
			Obs: f.obs, Tracer: f.Tracer,
			Replication: func() any { return f.Status() }})
	if old := f.srv.Swap(srv); old != nil {
		old.Close() // stop the replaced replica's in-flight warm, if any
	}
	f.logf("repl: bootstrapped from %s at version %d (%d tables)",
		f.Leader, srv.Version(), sn.Lake.NumTables())
}

// Bootstrap fetches a full snapshot from the leader and replaces the
// replica with it. Deltas past the snapshot arrive through the next Poll.
// A snapshot that arrives whole but does not inflate or decode fails the
// bootstrap and installs nothing.
func (f *Follower) Bootstrap(ctx context.Context) error {
	f.bootWire.Store(0)
	f.bootRaw.Store(0)
	f.bootResumes.Store(0)
	f.bootRestarts.Store(0)
	f.bootFetch.Store(0)
	f.bootDecode.Store(0)
	f.bootInstall.Store(0)
	start := time.Now()
	buf, err := f.fetch(ctx)
	if err != nil {
		return err
	}
	f.bootRaw.Store(int64(len(buf)))
	fetched := time.Now()
	f.bootFetch.Store(int64(fetched.Sub(start)))
	sn, err := persist.Unmarshal(buf)
	if err != nil {
		return err
	}
	decoded := time.Now()
	f.bootDecode.Store(int64(decoded.Sub(fetched)))
	f.install(sn)
	f.bootInstall.Store(int64(time.Since(decoded)))
	return nil
}

// fetch downloads the leader's snapshot and returns its raw bytes.
//
// The transfer is chunked: the leader frames the snapshot codec into CRC'd,
// individually gzipped chunks. fetch first collects CRC-verified frames, and
// a stream torn mid-transfer is re-requested from the raw offset its whole
// frames cover instead of from zero. Internal resume attempts must make
// progress — two failures in a row with no new frames in between surface
// the error to the caller, whose backoff takes over. Once the frames cover
// the snapshot, they are inflated in parallel into one buffer of exactly
// their raw length; a frame that passed its CRC but does not inflate fails
// the fetch, since the leader would serve the same bytes again.
func (f *Follower) fetch(ctx context.Context) ([]byte, error) {
	client := f.snapshotClient()
	var (
		frames  []persist.Frame // whole frames received so far, in stream order
		have    int             // their raw length: the resume offset
		version uint64          // snapshot version the frames belong to
		total   = -1            // raw snapshot size from SnapshotSizeHeader
	)
	// Every retry inside this loop must be justified by progress: a failure
	// with no new frames since the previous failure returns to the caller
	// instead of spinning against a dead or unreachable leader.
	progressed := true
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		url := f.Leader + "/repl/snapshot?chunked=1"
		resuming := have > 0
		if resuming {
			url += fmt.Sprintf("&offset=%d&version=%d", have, version)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, fmt.Errorf("repl: %w", err)
		}
		resp, err := client.Do(req)
		if err != nil {
			f.noteLeader(nil)
			if !progressed {
				return nil, fmt.Errorf("repl: %w", err)
			}
			progressed = false
			f.bootResumes.Add(1)
			f.logf("repl: snapshot fetch failed at offset %d (resuming): %v", have, err)
			continue
		}
		f.noteLeader(resp.Header)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusConflict:
			// The leader's snapshot moved past the version our frames belong
			// to; they describe a state that no longer exists. Start over.
			resp.Body.Close()
			if !resuming {
				return nil, fmt.Errorf("repl: snapshot fetch: unexpected conflict on a fresh request")
			}
			f.bootRestarts.Add(1)
			f.logf("repl: snapshot version moved past %d; restarting bootstrap from scratch", version)
			frames, have, version, total = nil, 0, 0, -1
			progressed = true // the leader answered; this attempt was live
			continue
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return nil, fmt.Errorf("repl: snapshot fetch: %s: %s", resp.Status, body)
		}
		if resp.Header.Get(SnapshotChunkedHeader) == "" {
			resp.Body.Close()
			return nil, fmt.Errorf("repl: snapshot answer lacks %s: the body is not chunk-framed", SnapshotChunkedHeader)
		}
		if n, err := strconv.Atoi(resp.Header.Get(SnapshotSizeHeader)); err == nil {
			total = n
		}
		version, _ = strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
		var readErr error
		for {
			fr, wire, err := persist.ReadFrame(resp.Body)
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err // whole frames only: the torn one is dropped
				break
			}
			frames = append(frames, fr)
			have += fr.RawLen()
			f.bootWire.Add(int64(wire))
			progressed = true
		}
		resp.Body.Close()
		if readErr != nil || (total >= 0 && have < total) {
			f.noteLeader(nil)
			if !progressed {
				if readErr == nil {
					readErr = fmt.Errorf("repl: snapshot stream ended at %d of %d bytes", have, total)
				}
				return nil, fmt.Errorf("repl: %w", readErr)
			}
			progressed = false
			f.bootResumes.Add(1)
			f.logf("repl: snapshot stream broke at offset %d of %d (resuming): %v", have, total, readErr)
			continue
		}
		break
	}
	buf, err := persist.InflateFrames(frames)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot at version %d: %w", version, err)
	}
	return buf, nil
}

// Poll runs one change-feed cycle: long-poll the leader for bursts past the
// replica's version and apply every whole frame of the answer with one
// Replay, which checks the version chain and publishes once. It returns the
// number of bursts applied (zero for an idle 204), then the error of a torn
// or undecodable frame, if any, or ErrBehindHorizon or ErrDiverged (a burst
// Replay refused) when only a re-bootstrap can help.
func (f *Follower) Poll(ctx context.Context) (int, error) {
	srv := f.srv.Load()
	if srv == nil {
		return 0, fmt.Errorf("repl: poll before bootstrap")
	}
	from := srv.Version()
	url := fmt.Sprintf("%s/repl/changes?from=%d", f.Leader, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, fmt.Errorf("repl: %w", err)
	}
	resp, err := f.client().Do(req)
	if err != nil {
		f.noteLeader(nil)
		return 0, fmt.Errorf("repl: %w", err)
	}
	defer resp.Body.Close()
	f.noteLeader(resp.Header)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return 0, nil
	case http.StatusGone:
		return 0, ErrBehindHorizon
	case http.StatusConflict:
		// The leader's history does not reach our version: it lost state
		// and restarted. Downgrading to its snapshot is the only way back
		// to a shared history.
		return 0, fmt.Errorf("%w: replica version %d is ahead of the leader's history", ErrDiverged, from)
	case http.StatusOK:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("repl: change feed: %s: %s", resp.Status, body)
	}

	var recs []*wal.Record
	var readErr error
	for {
		payload, err := wal.ReadFrame(resp.Body)
		if err == io.EOF {
			break
		}
		if err != nil {
			// The connection was cut mid-frame: the leader is not reliably
			// reachable, but the whole frames before it still apply.
			f.noteLeader(nil)
			readErr = fmt.Errorf("repl: %w", err)
			break
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			readErr = err
			break
		}
		recs = append(recs, rec)
	}
	if err := srv.Replay(recs...); err != nil {
		n := 0 // the applied bursts chain from the old version to the new one
		for v := from; v < srv.Version(); n++ {
			v = recs[n].Version
		}
		return n, fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	return len(recs), readErr
}

// backoffDelay computes the wait before retry number failures (1-based):
// base (retryDelay when zero) doubled per consecutive failure, capped at
// maxRetryDelay, then jittered ±25% by rnd (a [0,1) sample) so a fleet of
// followers that lost the same leader spreads its reconnections instead of
// hammering it in lockstep. Pure — callers supply the randomness.
func backoffDelay(base time.Duration, failures int, rnd float64) time.Duration {
	if base <= 0 {
		base = retryDelay
	}
	d := base
	for i := 1; i < failures && d < maxRetryDelay; i++ {
		d *= 2
	}
	d = min(d, maxRetryDelay)
	return d + time.Duration((rnd-0.5)*0.5*float64(d))
}

// Run replicates until ctx is cancelled: bootstrap (with retries), then
// poll forever, re-bootstrapping whenever the replica falls behind the
// leader's log horizon or diverges. Consecutive failures back off
// exponentially from 1s up to 30s, with jitter; any success resets the
// backoff. During a re-bootstrap the previous replica keeps serving — it is
// a consistent stale snapshot, which the consistency model permits — and is
// swapped out only when the new one is ready. On exit the current
// replica's in-flight background warm (if any) is cancelled — the replica
// itself keeps serving its snapshot. Run returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	defer func() {
		if s := f.srv.Load(); s != nil {
			s.Close()
		}
	}()
	failures := 0
	pause := func(err error, what string) {
		failures++
		d := backoffDelay(f.retryBase, failures, rand.Float64())
		f.logf("repl: %s failed (retry %d in %v): %v", what, failures, d, err)
		sleep(ctx, d)
	}
	for ctx.Err() == nil {
		if f.srv.Load() == nil {
			if err := f.Bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					break
				}
				pause(err, "bootstrap")
				continue
			}
			failures = 0
		}
		switch _, err := f.Poll(ctx); {
		case err == nil:
			failures = 0
		case errors.Is(err, ErrBehindHorizon), errors.Is(err, ErrDiverged):
			f.logf("repl: %v; re-bootstrapping from snapshot", err)
			if err := f.Bootstrap(ctx); err != nil && ctx.Err() == nil {
				pause(err, "re-bootstrap")
			} else if err == nil {
				failures = 0
			}
		default:
			if ctx.Err() != nil {
				break
			}
			pause(err, "poll")
		}
	}
	return ctx.Err()
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
