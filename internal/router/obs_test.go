package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/obs"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
	"domainnet/internal/wal"
)

// newObsFleet is newFleet with capture-everything tracing on every layer:
// leader, followers, and (via newObsRouter) the router itself.
func newObsFleet(t *testing.T, replicas int) *fleet {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	ld := repl.NewLeader(log)
	cfg := domainnet.Config{Measure: domainnet.DegreeBaseline, KeepSingletons: true}
	s := serve.NewWithOptions(datagen.Figure1Lake(), cfg, serve.Options{
		OnCommit: ld.OnCommit,
		Tracer:   &obs.Tracer{SlowThreshold: -1},
	})
	ld.Attach(s)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	fl := &fleet{leader: s, leaderTS: ts}
	for i := 0; i < replicas; i++ {
		f := &repl.Follower{
			Leader: ts.URL,
			Config: cfg,
			Tracer: &obs.Tracer{SlowThreshold: -1},
		}
		if err := f.Bootstrap(context.Background()); err != nil {
			t.Fatal(err)
		}
		fts := httptest.NewServer(f)
		t.Cleanup(fts.Close)
		fl.followers = append(fl.followers, f)
		fl.replicaTS = append(fl.replicaTS, fts)
	}
	return fl
}

func newObsRouter(t *testing.T, fl *fleet) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Options{
		Leader:   fl.leaderTS.URL,
		Replicas: fl.replicaURLs(),
		Logf:     t.Logf,
		Tracer:   &obs.Tracer{SlowThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func decode(t *testing.T, body string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	return m
}

// TestObsTracePropagation: the router mints a trace ID at the edge, stamps
// it on the proxied request and the response, and both the router's and the
// backend's captured traces carry that one ID — the end-to-end correlation
// the tracing layer exists for.
func TestObsTracePropagation(t *testing.T) {
	fl := newObsFleet(t, 1)
	_, ts := newObsRouter(t, fl)

	resp, _ := get(t, ts.URL+"/topk?k=2")
	id := resp.Header.Get(obs.TraceHeader)
	if len(id) != 16 {
		t.Fatalf("router did not mint a trace ID: %q", id)
	}
	backendURL := resp.Header.Get(BackendHeader)
	if backendURL != fl.replicaTS[0].URL {
		t.Fatalf("read served by %q, want the replica %q", backendURL, fl.replicaTS[0].URL)
	}

	// The router's trace: endpoint topk, our ID, an upstream span, and the
	// chosen backend in the note.
	_, body := get(t, ts.URL+"/debug/traces")
	router := findTrace(t, decode(t, body), id)
	if router["endpoint"] != "topk" || router["note"] != backendURL {
		t.Fatalf("router trace = %v", router)
	}
	spans := router["spans"].([]any)
	if len(spans) == 0 || spans[0].(map[string]any)["name"] != "upstream" {
		t.Fatalf("router spans = %v", spans)
	}

	// The backend's trace for the same request: same ID, backend-side spans.
	_, body = get(t, backendURL+"/debug/traces")
	backend := findTrace(t, decode(t, body), id)
	if backend["endpoint"] != "topk" {
		t.Fatalf("backend trace = %v", backend)
	}
	names := make(map[string]bool)
	for _, sp := range backend["spans"].([]any) {
		names[sp.(map[string]any)["name"].(string)] = true
	}
	if !names["score"] || !names["encode"] {
		t.Fatalf("backend spans missing: %v", backend["spans"])
	}

	// An inbound ID is adopted, not replaced.
	req, _ := http.NewRequest("GET", ts.URL+"/topk?k=2", nil)
	req.Header.Set(obs.TraceHeader, "cafef00dcafef00d")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.TraceHeader); got != "cafef00dcafef00d" {
		t.Fatalf("inbound ID replaced: %q", got)
	}
}

func findTrace(t *testing.T, dump map[string]any, id string) map[string]any {
	t.Helper()
	traces := dump["traces"].([]any)
	for _, tr := range traces {
		tr := tr.(map[string]any)
		if tr["id"] == id {
			return tr
		}
	}
	t.Fatalf("trace %s not found among %d traces", id, len(traces))
	return nil
}

// TestObsLbMetricsFleetMerge: /lb/metrics aggregates every backend's
// per-endpoint histograms into fleet-wide quantiles, reports which backends
// the aggregate covers, and carries the router's own edge accounting.
func TestObsLbMetricsFleetMerge(t *testing.T) {
	fl := newObsFleet(t, 1)
	_, ts := newObsRouter(t, fl)

	// Reads through the router land on the replica; hit the leader directly
	// so the fleet aggregate must span two backends.
	for i := 0; i < 3; i++ {
		get(t, ts.URL+"/topk?k=2")
	}
	get(t, fl.leaderTS.URL+"/topk?k=2")

	_, body := get(t, ts.URL+"/lb/metrics")
	m := decode(t, body)

	backends := m["backends"].([]any)
	if len(backends) != 2 {
		t.Fatalf("backends = %v", backends)
	}
	for _, b := range backends {
		if b.(map[string]any)["error"] != nil {
			t.Fatalf("scrape error: %v", b)
		}
	}
	fleetTopk := m["fleet"].(map[string]any)["topk"].(map[string]any)
	if fleetTopk["count"].(float64) != 4 {
		t.Fatalf("fleet topk count = %v, want 4 (3 via replica + 1 on leader)", fleetTopk["count"])
	}
	p50, p99 := fleetTopk["p50_ns"].(float64), fleetTopk["p99_ns"].(float64)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("fleet quantiles implausible: p50=%v p99=%v", p50, p99)
	}
	if len(fleetTopk["hist"].(map[string]any)["buckets"].(map[string]any)) == 0 {
		t.Fatal("fleet histogram lost its buckets in the merge")
	}
	routerTopk := m["router"].(map[string]any)["topk"].(map[string]any)
	if routerTopk["count"].(float64) != 3 {
		t.Fatalf("router edge count = %v, want 3", routerTopk["count"])
	}
	if m["tracer"] == nil || m["runtime"] == nil {
		t.Fatal("tracer/runtime sections missing")
	}
}

// TestObsLbMetricsProm: the fleet aggregate renders as Prometheus text.
func TestObsLbMetricsProm(t *testing.T) {
	fl := newObsFleet(t, 1)
	_, ts := newObsRouter(t, fl)
	get(t, ts.URL+"/topk?k=2")

	resp, body := get(t, ts.URL+"/lb/metrics?format=prom")
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		`domainnet_fleet_requests_total{endpoint="topk"} 1`,
		"# TYPE domainnet_fleet_request_seconds histogram",
		`domainnet_lb_requests_total{endpoint="topk"} 1`,
		"domainnet_lb_leader_version",
		"domainnet_lb_backends_admitted 1",
		`domainnet_lb_traces_total{stage="evicted"} 0`,
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, body)
		}
	}
}

// TestObsLbMetricsBackendDown: a dead backend degrades the aggregate, not
// the endpoint — its scrape error is reported and the rest still merge.
func TestObsLbMetricsBackendDown(t *testing.T) {
	fl := newObsFleet(t, 1)
	_, ts := newObsRouter(t, fl)
	get(t, fl.leaderTS.URL+"/topk?k=2")
	fl.replicaTS[0].Close()

	resp, body := get(t, ts.URL+"/lb/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	m := decode(t, body)
	var sawErr bool
	for _, b := range m["backends"].([]any) {
		if b.(map[string]any)["error"] != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("dead backend's scrape error not reported")
	}
	if m["fleet"].(map[string]any)["topk"].(map[string]any)["count"].(float64) != 1 {
		t.Fatal("leader's metrics lost when a replica is down")
	}
}

// TestObsRouterEndpointsInstrumented: the router's own endpoints (lb_status
// included — previously uninstrumented) book into its edge accounting.
func TestObsRouterEndpointsInstrumented(t *testing.T) {
	fl := newObsFleet(t, 0)
	_, ts := newObsRouter(t, fl)
	get(t, ts.URL+"/lb/status")
	get(t, ts.URL+"/lb/status")
	get(t, ts.URL+"/debug/traces")

	_, body := get(t, ts.URL+"/lb/metrics")
	router := decode(t, body)["router"].(map[string]any)
	if router["lb_status"].(map[string]any)["count"].(float64) != 2 {
		t.Fatalf("lb_status count = %v", router["lb_status"])
	}
	if router["debug_traces"].(map[string]any)["count"].(float64) != 1 {
		t.Fatalf("debug_traces count = %v", router["debug_traces"])
	}
	// Reads falling back to the leader (no replicas) book under their path.
	get(t, ts.URL+"/topk?k=2")
	_, body = get(t, ts.URL+"/lb/metrics")
	router = decode(t, body)["router"].(map[string]any)
	if router["topk"].(map[string]any)["count"].(float64) != 1 {
		t.Fatalf("topk edge count = %v", router["topk"])
	}
}
