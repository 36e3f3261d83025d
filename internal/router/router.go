// Package router is the serving fleet's front door: a thin stdlib reverse
// proxy that spreads the read endpoints (/topk, /score, /stats, /scorers)
// across caught-up follower replicas and forwards everything else — the
// mutation endpoints above all — to the leader.
//
// Health is probed, not inferred: every CheckInterval the router reads the
// leader's version (the X-Domainnet-Version header any read endpoint
// stamps) and each replica's /repl/status, and admits a replica only while
// it is serving and within the lag budget. Ejection and readmission use a
// hysteresis band — a replica is ejected when its lag exceeds MaxLag but
// readmitted only once it has caught back up to ReadmitLag — so a replica
// hovering at the threshold does not flap in and out of rotation. A
// transport error on a proxied request ejects the backend immediately; the
// next probe readmits it when it recovers. With no replica admitted, reads
// fall back to the leader, so the router degrades to a plain proxy rather
// than an outage.
//
// GET /lb/status reports the router's own view of the fleet.
//
// The router is also the fleet's observability edge. Every proxied request
// is minted a trace ID (or adopts an inbound one), which is stamped on the
// outbound request — so a backend capturing the same slow request records
// the same ID — and echoed on the response. GET /lb/metrics scrapes every
// backend's /metrics and merges the per-endpoint histograms bucket-wise
// into fleet-wide quantiles (never averaging per-replica percentiles),
// alongside the router's own accounting; GET /debug/traces dumps the
// router's captured slow traces.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"domainnet/internal/obs"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
)

// BackendHeader names the response header carrying the backend URL a
// proxied request was actually served by — the observable for spread tests
// and for debugging stale reads.
const BackendHeader = "X-Domainnet-Backend"

// DefaultMaxLag is the eject threshold: a replica more than this many
// versions behind the leader leaves the read rotation.
const DefaultMaxLag = 8

// DefaultCheckInterval paces the health-probe loop.
const DefaultCheckInterval = 2 * time.Second

// readPaths are the endpoints safe to serve from any caught-up replica:
// snapshot reads, stamped with the version they reflect.
var readPaths = map[string]bool{
	"/topk":    true,
	"/score":   true,
	"/stats":   true,
	"/scorers": true,
}

// Options configures a Router.
type Options struct {
	// Leader is the leader's base URL. Required.
	Leader string
	// Replicas are the follower base URLs to spread reads across.
	Replicas []string
	// MaxLag ejects a replica whose version trails the leader's by more
	// than this many bursts. Default DefaultMaxLag.
	MaxLag uint64
	// ReadmitLag readmits an ejected replica once its lag is at or below
	// this. Default MaxLag/2. Must not exceed MaxLag.
	ReadmitLag uint64
	// CheckInterval paces Run's probe loop. Default DefaultCheckInterval.
	CheckInterval time.Duration
	// Client performs the health probes. Default: 2s timeout.
	Client *http.Client
	// Logf, when non-nil, receives eject/readmit transitions. log.Printf
	// fits.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, configures the router's slow-request tracing
	// (threshold, ring size). Default: a zero Tracer — 50ms threshold.
	Tracer *obs.Tracer
}

// backend is one proxied upstream plus its latest probe verdict. The probe
// fields are guarded by Router.mu; the serving path never reads them — it
// only loads the admitted snapshot slice.
type backend struct {
	url   string
	proxy *httputil.ReverseProxy

	admitted bool
	version  uint64
	lag      uint64
	state    string
	lastErr  string
}

// Router implements http.Handler over a leader and a set of replicas.
type Router struct {
	opts     Options
	leader   *backend
	replicas []*backend

	mu        sync.Mutex
	admitted  atomic.Pointer[[]*backend] // read rotation, rebuilt after probes
	rr        atomic.Uint64              // round-robin cursor
	leaderVer atomic.Uint64              // newest version seen on the leader

	obs    *obs.Endpoints
	tracer *obs.Tracer
	// buffers lends every backend's proxy its response copy buffers, so a
	// proxied response reuses one instead of allocating its own.
	buffers *copyBuffers
	// Instrumented wrappers for the router's own endpoints, built once.
	statusH  http.HandlerFunc
	metricsH http.HandlerFunc
	tracesH  http.HandlerFunc
}

// New builds a router over the fleet. It does not probe; replicas join the
// rotation on the first CheckNow (or Run tick).
func New(opts Options) (*Router, error) {
	if opts.Leader == "" {
		return nil, fmt.Errorf("router: a leader URL is required")
	}
	if opts.MaxLag == 0 {
		opts.MaxLag = DefaultMaxLag
	}
	if opts.ReadmitLag == 0 {
		opts.ReadmitLag = opts.MaxLag / 2
	}
	if opts.ReadmitLag > opts.MaxLag {
		return nil, fmt.Errorf("router: readmit lag %d exceeds max lag %d — replicas would readmit already ejectable",
			opts.ReadmitLag, opts.MaxLag)
	}
	if opts.CheckInterval <= 0 {
		opts.CheckInterval = DefaultCheckInterval
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Second}
	}
	rt := &Router{opts: opts, obs: &obs.Endpoints{}, tracer: opts.Tracer, buffers: new(copyBuffers)}
	if rt.tracer == nil {
		rt.tracer = &obs.Tracer{}
	}
	rt.statusH = obs.Instrumented(rt.obs, rt.tracer, "lb_status", rt.handleStatus)
	rt.metricsH = obs.Instrumented(rt.obs, rt.tracer, "lb_metrics", rt.handleMetrics)
	rt.tracesH = obs.Instrumented(rt.obs, rt.tracer, "debug_traces", rt.tracer.ServeHTTP)
	var err error
	if rt.leader, err = rt.newBackend(opts.Leader); err != nil {
		return nil, err
	}
	for _, raw := range opts.Replicas {
		b, err := rt.newBackend(raw)
		if err != nil {
			return nil, err
		}
		rt.replicas = append(rt.replicas, b)
	}
	rt.admitted.Store(&[]*backend{})
	return rt, nil
}

func (rt *Router) newBackend(raw string) (*backend, error) {
	raw = strings.TrimRight(raw, "/")
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("router: backend %q is not an absolute URL", raw)
	}
	b := &backend{url: raw, state: "unprobed"}
	b.proxy = httputil.NewSingleHostReverseProxy(u)
	b.proxy.BufferPool = rt.buffers
	b.proxy.ModifyResponse = func(resp *http.Response) error {
		resp.Header.Set(BackendHeader, b.url)
		// The router already stamped the trace ID on the client response
		// before proxying; the backend echoes the same ID, and letting the
		// copy through would duplicate the header field.
		resp.Header.Del(obs.TraceHeader)
		return nil
	}
	b.proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		// The backend failed a live request; don't wait for the next probe
		// to stop sending traffic its way.
		rt.eject(b, err)
		http.Error(w, fmt.Sprintf("router: backend %s: %v", b.url, err), http.StatusBadGateway)
	}
	return b, nil
}

// copyBuffers is a pool of the 32 KiB buffers ReverseProxy copies response
// bodies through; without a pool it allocates one per response.
type copyBuffers struct{ p sync.Pool }

func (c *copyBuffers) Get() []byte {
	if b, ok := c.p.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, 32<<10)
}

func (c *copyBuffers) Put(b []byte) { c.p.Put(&b) }

func (rt *Router) logf(format string, args ...any) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// eject drops a backend from the rotation immediately (proxy error path).
func (rt *Router) eject(b *backend, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b.lastErr = err.Error()
	if !b.admitted {
		return
	}
	b.admitted = false
	rt.rebuildLocked()
	rt.logf("router: ejected %s (request failed: %v)", b.url, err)
}

// rebuildLocked re-snapshots the admitted slice. Callers hold rt.mu.
func (rt *Router) rebuildLocked() {
	admitted := make([]*backend, 0, len(rt.replicas))
	for _, b := range rt.replicas {
		if b.admitted {
			admitted = append(admitted, b)
		}
	}
	rt.admitted.Store(&admitted)
}

// pick returns the next admitted replica, or the leader when none is.
func (rt *Router) pick() *backend {
	admitted := *rt.admitted.Load()
	if len(admitted) == 0 {
		return rt.leader
	}
	return admitted[rt.rr.Add(1)%uint64(len(admitted))]
}

// ServeHTTP routes one request: safe snapshot reads go to a caught-up
// replica, everything else to the leader. The router's own endpoints
// (/lb/*, /debug/traces) are served locally.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/lb/status":
		rt.statusH(w, r)
		return
	case "/lb/metrics":
		rt.metricsH(w, r)
		return
	case "/debug/traces":
		rt.tracesH(w, r)
		return
	}
	if (r.Method == http.MethodGet || r.Method == http.MethodHead) && readPaths[r.URL.Path] {
		rt.proxyVia(strings.TrimPrefix(r.URL.Path, "/"), rt.pick(), w, r)
		return
	}
	rt.proxyVia("leader_proxy", rt.leader, w, r)
}

// proxyVia sends one request through a backend with the router's edge
// instrumentation. It cannot use obs.Instrumented: the trace ID must be
// minted eagerly — before the backend sees the request — so it can ride the
// outbound TraceHeader and a slow request captured at both the router and
// the backend shares one ID end to end. ReverseProxy clones the request
// after our header set, so the stamp reaches the backend.
func (rt *Router) proxyVia(name string, b *backend, w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(obs.TraceHeader)
	if id == "" {
		id = obs.NewTraceID()
	}
	r.Header.Set(obs.TraceHeader, id)
	w.Header().Set(obs.TraceHeader, id)
	a := rt.tracer.Start(name, id)
	a.SetNote(b.url)
	sp := a.StartSpan("upstream")
	sw := obs.NewStatusWriter(w, a)
	start := time.Now()
	b.proxy.ServeHTTP(sw, r)
	sp.End()
	rt.obs.Get(name).Record(sw.Code, time.Since(start))
	rt.tracer.Finish(a, sw.Code)
}

// probeLeader reads the leader's current version off any read endpoint's
// version header.
func (rt *Router) probeLeader(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.leader.url+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("leader /stats: %s", resp.Status)
	}
	v, err := strconv.ParseUint(resp.Header.Get(serve.VersionHeader), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("leader /stats carries no %s header", serve.VersionHeader)
	}
	return v, nil
}

// probeReplica reads one replica's /repl/status.
func (rt *Router) probeReplica(ctx context.Context, b *backend) (repl.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/repl/status", nil)
	if err != nil {
		return repl.Status{}, err
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		return repl.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return repl.Status{}, fmt.Errorf("/repl/status: %s", resp.Status)
	}
	var st repl.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return repl.Status{}, fmt.Errorf("/repl/status: %w", err)
	}
	return st, nil
}

// CheckNow runs one probe round synchronously: leader version first, then
// every replica's status, then the admission decisions. Tests drive the
// router deterministically through it; Run calls it on a ticker.
func (rt *Router) CheckNow(ctx context.Context) {
	if v, err := rt.probeLeader(ctx); err == nil {
		rt.leaderVer.Store(v)
	} else {
		// Keep the last known leader version: replicas should not all eject
		// because the leader blipped, and reads can still be served stale.
		rt.logf("router: leader probe failed: %v", err)
	}
	leaderVer := rt.leaderVer.Load()

	type verdict struct {
		st  repl.Status
		err error
	}
	verdicts := make([]verdict, len(rt.replicas))
	var wg sync.WaitGroup
	for i, b := range rt.replicas {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			st, err := rt.probeReplica(ctx, b)
			verdicts[i] = verdict{st, err}
		}(i, b)
	}
	wg.Wait()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, b := range rt.replicas {
		st, err := verdicts[i].st, verdicts[i].err
		was := b.admitted
		switch {
		case err != nil:
			b.admitted = false
			b.state = "unreachable"
			b.lastErr = err.Error()
		case st.State != "serving":
			b.admitted = false
			b.state = st.State
			b.version = st.Version
			b.lastErr = ""
		default:
			b.state = st.State
			b.version = st.Version
			b.lastErr = ""
			b.lag = 0
			if leaderVer > st.Version {
				b.lag = leaderVer - st.Version
			}
			// The hysteresis band: an admitted replica tolerates lag up to
			// MaxLag, an ejected one must catch up to ReadmitLag to return.
			if b.admitted {
				b.admitted = b.lag <= rt.opts.MaxLag
			} else {
				b.admitted = b.lag <= rt.opts.ReadmitLag
			}
		}
		if b.admitted != was {
			if b.admitted {
				rt.logf("router: admitted %s (version %d, lag %d)", b.url, b.version, b.lag)
			} else {
				rt.logf("router: ejected %s (state %s, lag %d, err %q)", b.url, b.state, b.lag, b.lastErr)
			}
		}
	}
	rt.rebuildLocked()
}

// Run probes the fleet until ctx is cancelled, starting with an immediate
// round so the rotation fills before the first tick. It returns ctx.Err().
func (rt *Router) Run(ctx context.Context) error {
	rt.CheckNow(ctx)
	t := time.NewTicker(rt.opts.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.CheckNow(ctx)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// BackendStatus is one upstream's entry in the /lb/status report.
type BackendStatus struct {
	URL      string `json:"url"`
	Admitted bool   `json:"admitted"`
	Version  uint64 `json:"version"`
	Lag      uint64 `json:"lag"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
}

// FleetStatus is the /lb/status response body, and the head of /lb/metrics.
type FleetStatus struct {
	LeaderURL     string          `json:"leader_url" prom:"-"`
	LeaderVersion uint64          `json:"leader_version" prom:"domainnet_lb_leader_version"`
	Admitted      int             `json:"admitted" prom:"domainnet_lb_backends_admitted"`
	Replicas      []BackendStatus `json:"replicas" prom:"-"`
}

// Status reports the router's current view of the fleet.
func (rt *Router) Status() FleetStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fs := FleetStatus{
		LeaderURL:     rt.leader.url,
		LeaderVersion: rt.leaderVer.Load(),
	}
	for _, b := range rt.replicas {
		if b.admitted {
			fs.Admitted++
		}
		fs.Replicas = append(fs.Replicas, BackendStatus{
			URL:      b.url,
			Admitted: b.admitted,
			Version:  b.version,
			Lag:      b.lag,
			State:    b.state,
			Error:    b.lastErr,
		})
	}
	return fs
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	obs.WriteMetrics(w, r, rt.Status())
}

// backendScrape is one backend's entry in the /lb/metrics report: which
// upstreams the fleet aggregate actually covers, and why any are missing.
type backendScrape struct {
	URL   string `json:"url"`
	Error string `json:"error,omitempty"`
}

// lbMetrics is the /lb/metrics body and the one declaration of its series,
// rendered as JSON or, with ?format=prom, as Prometheus text from the prom
// tags (see obs.WriteMetrics).
type lbMetrics struct {
	FleetStatus `prom:""`
	Backends    []backendScrape                `json:"backends" prom:"-"`
	Fleet       map[string]obs.EndpointMetrics `json:"fleet" prom:"domainnet_fleet_"`
	Router      map[string]obs.EndpointMetrics `json:"router" prom:"domainnet_lb_"`
	Tracer      obs.TracerStats                `json:"tracer" prom:"domainnet_lb_"`
	Runtime     obs.RuntimeStats               `json:"runtime" prom:"domainnet_lb_"`
}

// scrapeBackend pulls one backend's /metrics and returns its per-endpoint
// accounting. The histogram buckets ride along in the wire form, so the
// caller can merge samples rather than averages.
func (rt *Router) scrapeBackend(ctx context.Context, url string) (map[string]obs.EndpointMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	var body serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return body.Endpoints, nil
}

// handleMetrics serves GET /lb/metrics: the fleet-wide view. It scrapes the
// leader and every replica (admitted or not — an ejected replica's history
// still belongs in the aggregate), merges the per-endpoint histograms
// bucket-wise, and reports fleet quantiles computed over the union of
// samples. The router's own edge accounting rides along under "router".
// ?format=prom renders the same in the Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	urls := make([]string, 0, 1+len(rt.replicas))
	urls = append(urls, rt.leader.url)
	for _, b := range rt.replicas {
		urls = append(urls, b.url)
	}
	scrapes := make([]backendScrape, len(urls))
	perBackend := make([]map[string]obs.EndpointMetrics, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			m, err := rt.scrapeBackend(r.Context(), u)
			scrapes[i] = backendScrape{URL: u}
			if err != nil {
				scrapes[i].Error = err.Error()
				return
			}
			perBackend[i] = m
		}(i, u)
	}
	wg.Wait()

	fleet := make(map[string]obs.EndpointMetrics)
	for _, m := range perBackend {
		obs.MergeMetrics(fleet, m)
	}
	obs.WriteMetrics(w, r, lbMetrics{
		FleetStatus: rt.Status(),
		Backends:    scrapes,
		Fleet:       fleet,
		Router:      rt.obs.Metrics(),
		Tracer:      rt.tracer.Stats(),
		Runtime:     obs.ReadRuntime(),
	})
}
