package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/obs"
)

// newObsServer builds a test server with capture-everything tracing, and
// returns the shared pieces so tests can assert against them directly.
func newObsServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	if opts.Tracer == nil {
		opts.Tracer = &obs.Tracer{SlowThreshold: -1}
	}
	s := NewWithOptions(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.BetweennessExact,
		KeepSingletons: true,
	}, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

// TestObsMetricsPercentiles: after a few requests, /metrics reports a full
// latency distribution per endpoint — percentiles ordered, consistent with
// the histogram, and the raw buckets present for fleet merging.
func TestObsMetricsPercentiles(t *testing.T) {
	ts, _ := newObsServer(t, Options{})
	for i := 0; i < 10; i++ {
		getJSON(t, ts.URL+"/topk?k=2", http.StatusOK)
	}
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	topk := m["endpoints"].(map[string]any)["topk"].(map[string]any)
	if topk["count"].(float64) != 10 {
		t.Fatalf("count = %v", topk["count"])
	}
	p50 := topk["p50_ns"].(float64)
	p95 := topk["p95_ns"].(float64)
	p99 := topk["p99_ns"].(float64)
	max := topk["max_ns"].(float64)
	avg := topk["avg_ns"].(float64)
	if p50 <= 0 || p95 < p50 || p99 < p95 || max < p99 {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, max)
	}
	if avg <= 0 {
		t.Fatalf("avg = %v", avg)
	}
	hist := topk["hist"].(map[string]any)
	if hist["count"].(float64) != 10 {
		t.Fatalf("hist.count = %v", hist["count"])
	}
	if len(hist["buckets"].(map[string]any)) == 0 {
		t.Fatal("histogram buckets missing from the wire form")
	}
	// The metrics endpoint instruments itself.
	m = getJSON(t, ts.URL+"/metrics", http.StatusOK)
	met := m["endpoints"].(map[string]any)["metrics"].(map[string]any)
	if met["count"].(float64) < 1 {
		t.Fatalf("metrics endpoint not instrumented: %v", met)
	}
	// Runtime and tracer sections ride along.
	rt := m["runtime"].(map[string]any)
	if rt["goroutines"].(float64) < 1 || rt["heap_bytes"].(float64) <= 0 {
		t.Fatalf("runtime section implausible: %v", rt)
	}
	tr := m["tracer"].(map[string]any)
	if tr["started"].(float64) < 10 {
		t.Fatalf("tracer.started = %v", tr["started"])
	}
}

// TestObsNotModifiedCounter: a 304 revalidation is counted as not_modified,
// not as an error and not silently folded into plain counts.
func TestObsNotModifiedCounter(t *testing.T) {
	ts, _ := newObsServer(t, Options{})
	resp, err := http.Get(ts.URL + "/topk?k=2")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if etag == "" {
		t.Fatal("no ETag on /topk")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/topk?k=2", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d", resp.StatusCode)
	}
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	topk := m["endpoints"].(map[string]any)["topk"].(map[string]any)
	if topk["count"].(float64) != 2 || topk["not_modified"].(float64) != 1 || topk["errors"].(float64) != 0 {
		t.Fatalf("count/not_modified/errors = %v/%v/%v, want 2/1/0",
			topk["count"], topk["not_modified"], topk["errors"])
	}
}

// TestObsDebugTraces: with capture-everything tracing, a request carrying a
// trace ID has the ID echoed on the response and its trace — endpoint, ID,
// status, named spans — retrievable from /debug/traces.
func TestObsDebugTraces(t *testing.T) {
	ts, _ := newObsServer(t, Options{})
	req, _ := http.NewRequest("GET", ts.URL+"/topk?k=2", nil)
	req.Header.Set(obs.TraceHeader, "feedc0defeedc0de")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "feedc0defeedc0de" {
		t.Fatalf("trace header not echoed: %q", got)
	}

	dump := getJSON(t, ts.URL+"/debug/traces", http.StatusOK)
	traces := dump["traces"].([]any)
	var found map[string]any
	for _, tr := range traces {
		tr := tr.(map[string]any)
		if tr["id"] == "feedc0defeedc0de" {
			found = tr
		}
	}
	if found == nil {
		t.Fatalf("trace feedc0defeedc0de not in /debug/traces (%d traces)", len(traces))
	}
	if found["endpoint"] != "topk" || found["status"].(float64) != 200 {
		t.Fatalf("trace = %v", found)
	}
	spans := found["spans"].([]any)
	names := make(map[string]bool)
	for _, sp := range spans {
		names[sp.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"parse", "snapshot", "score", "encode"} {
		if !names[want] {
			t.Fatalf("span %q missing from %v", want, spans)
		}
	}
	if dump["tracer"].(map[string]any)["captured"].(float64) < 1 {
		t.Fatal("tracer.captured not counted")
	}
	// A request without an inbound ID gets one minted at capture.
	getJSON(t, ts.URL+"/score?value=x", http.StatusOK)
	dump = getJSON(t, ts.URL+"/debug/traces", http.StatusOK)
	var scoreTrace map[string]any
	for _, tr := range dump["traces"].([]any) {
		tr := tr.(map[string]any)
		if tr["endpoint"] == "score" {
			scoreTrace = tr
		}
	}
	if scoreTrace == nil || len(scoreTrace["id"].(string)) != 16 {
		t.Fatalf("score trace = %v", scoreTrace)
	}
}

// TestObsSlowThresholdGate: with the default threshold, microsecond test
// requests never reach the ring — the steady-state production behavior.
func TestObsSlowThresholdGate(t *testing.T) {
	ts, _ := newObsServer(t, Options{Tracer: &obs.Tracer{}})
	getJSON(t, ts.URL+"/topk?k=2", http.StatusOK)
	dump := getJSON(t, ts.URL+"/debug/traces", http.StatusOK)
	if n := len(dump["traces"].([]any)); n != 0 {
		t.Fatalf("fast requests captured: %d traces", n)
	}
	tr := dump["tracer"].(map[string]any)
	if tr["started"].(float64) < 1 || tr["captured"].(float64) != 0 {
		t.Fatalf("tracer stats = %v", tr)
	}
}

// TestObsPromExposition: /metrics?format=prom renders scrapeable text —
// correct content type, per-endpoint counter and histogram families, runtime
// gauges — without any client library.
func TestObsPromExposition(t *testing.T) {
	ts, _ := newObsServer(t, Options{})
	getJSON(t, ts.URL+"/topk?k=2", http.StatusOK)
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	if resp.Header.Get(VersionHeader) == "" {
		t.Fatal("prom response missing version header")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`domainnet_requests_total{endpoint="topk"} 1`,
		"# TYPE domainnet_request_seconds histogram",
		`domainnet_request_seconds_count{endpoint="topk"} 1`,
		`le="+Inf"`,
		"domainnet_goroutines",
		"domainnet_publishes_total 1",
		"domainnet_snapshot_version 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestObsSharedEndpointsSurviveRebuild: two servers over one Endpoints
// registry (the follower re-bootstrap scenario) accumulate into the same
// accounting — counts do not reset when a server is replaced.
func TestObsSharedEndpointsSurviveRebuild(t *testing.T) {
	shared := &obs.Endpoints{}
	ts1, _ := newObsServer(t, Options{Obs: shared})
	getJSON(t, ts1.URL+"/topk?k=2", http.StatusOK)
	getJSON(t, ts1.URL+"/topk?k=2", http.StatusOK)
	ts2, _ := newObsServer(t, Options{Obs: shared})
	getJSON(t, ts2.URL+"/topk?k=2", http.StatusOK)
	m := getJSON(t, ts2.URL+"/metrics", http.StatusOK)
	topk := m["endpoints"].(map[string]any)["topk"].(map[string]any)
	if topk["count"].(float64) != 3 {
		t.Fatalf("shared accounting count = %v, want 3 across both servers", topk["count"])
	}
}

// TestObsReplLagSection: a server constructed with a Replication hook
// publishes the hook's view as the replication section of /metrics, in
// both formats.
func TestObsReplLagSection(t *testing.T) {
	type replView struct {
		Lag             uint64 `json:"lag" prom:"lag"`
		LeaderReachable bool   `json:"leader_reachable" prom:"leader_reachable"`
	}
	ts, _ := newObsServer(t, Options{Replication: func() any { return replView{Lag: 7, LeaderReachable: true} }})
	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	repl := m["replication"].(map[string]any)
	if repl["lag"].(float64) != 7 || repl["leader_reachable"] != true {
		t.Fatalf("replication section = %v", repl)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\ndomainnet_replication_lag 7\n", "\ndomainnet_replication_leader_reachable 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("prom exposition lacks %q:\n%s", want, body)
		}
	}
	// A primary has no replication section at all.
	ts, _ = newObsServer(t, Options{})
	if m := getJSON(t, ts.URL+"/metrics", http.StatusOK); m["replication"] != nil {
		t.Fatalf("primary publishes a replication section: %v", m["replication"])
	}
}
