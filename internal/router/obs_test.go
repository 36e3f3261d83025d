package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/obs"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
	"domainnet/internal/table"
	"domainnet/internal/wal"
)

// newObsFleet is newFleet with capture-everything tracing on every layer:
// leader, followers, and (via newObsRouter) the router itself.
func newObsFleet(t *testing.T, replicas int) *fleet {
	t.Helper()
	return newObsFleetOver(t, replicas, domainnet.Config{Measure: domainnet.DegreeBaseline, KeepSingletons: true})
}

// newObsFleetOver is newObsFleet with any detector configuration.
func newObsFleetOver(t *testing.T, replicas int, cfg domainnet.Config) *fleet {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	ld := repl.NewLeader(log)
	s := serve.NewWithOptions(datagen.Figure1Lake(), cfg, serve.Options{
		OnCommit:    ld.OnCommit,
		Tracer:      &obs.Tracer{SlowThreshold: -1},
		Replication: func() any { return ld.Stats() },
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

// TestObsMetricsParity: on a leader whose warm took the incremental path, on
// a follower, and on the router, the JSON and Prometheus views of the
// metrics endpoint expose the same series. Every numeric or bool leaf
// outside the endpoint maps has exactly one sample with the same value, and
// no sample lacks a leaf.
func TestObsMetricsParity(t *testing.T) {
	// Exact betweenness with singleton filtering on: a stray row of values
	// found nowhere else changes the table but not the graph's adjacency, so
	// the publish it causes warms through the incremental path.
	fl := newObsFleetOver(t, 1, domainnet.Config{Measure: domainnet.BetweennessExact})
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	warmIdle := func(s *serve.Server, completed int64) func() bool {
		return func() bool {
			ws := s.WarmStats()
			return ws.Completed >= completed && ws.Completed+ws.Cancelled == ws.Started
		}
	}
	w1 := func(stray bool) *table.Table {
		animals, cities := []string{"Jaguar", "Puma"}, []string{"Memphis", "Lima"}
		if stray {
			animals, cities = append(animals, "StrayBeast"), append(cities, "StrayTown")
		}
		return table.New("W1").AddColumn("animal", animals...).AddColumn("city", cities...)
	}
	waitFor("the leader's initial warm", warmIdle(fl.leader, 1))
	if _, err := fl.leader.Apply([]*table.Table{w1(false)}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor("the leader's structural warm", warmIdle(fl.leader, 2))
	if _, err := fl.leader.Apply([]*table.Table{w1(true)}, []string{"W1"}); err != nil {
		t.Fatal(err)
	}
	waitFor("the leader's incremental warm", warmIdle(fl.leader, 3))
	if ws := fl.leader.WarmStats(); ws.Incremental != 1 || ws.Dirty.Count != 1 {
		t.Fatalf("leader warms: incremental %d, dirty count %d; want 1 and 1", ws.Incremental, ws.Dirty.Count)
	}
	f := fl.followers[0]
	if n, err := f.Poll(context.Background()); err != nil || n != 2 {
		t.Fatalf("follower poll applied %d bursts, err %v; want 2", n, err)
	}
	waitFor("the follower's warms", warmIdle(f.Server(), 1))
	_, ts := newObsRouter(t, fl)
	get(t, ts.URL+"/topk?k=2")
	get(t, fl.leaderTS.URL+"/topk?k=2")

	ls := &repl.LeaderStats{}
	leader := serve.Metrics{Replication: ls}
	checkMetricsParity(t, fl.leaderTS.URL+"/metrics", &leader)
	if leader.Warm.Dirty.Count != leader.Warm.Incremental || leader.Warm.Incremental != 1 {
		t.Errorf("leader view: warm %+v", leader.Warm)
	}
	// The follower's bootstrap made the leader encode its first version.
	if ls.Encodes != 1 || ls.Marshal.Count != 1 || ls.Frame.Count != 1 || ls.Marshal.Sum <= 0 || ls.Frame.Sum <= 0 {
		t.Errorf("leader replication section = %+v, want one timed encode and one timed framing", ls)
	}
	if r := leader.Rebuilds; r.Unchanged+r.Full+r.Incremental != leader.Publishes || r.Incremental < 1 {
		t.Errorf("leader view: rebuilds %+v over %d publishes", r, leader.Publishes)
	}
	st := &repl.Status{}
	checkMetricsParity(t, fl.replicaTS[0].URL+"/metrics", &serve.Metrics{Replication: st})
	if !st.LeaderReachable || st.Bootstrap.RawBytes == 0 || st.Version != fl.leader.Version() {
		t.Errorf("follower replication section = %+v", st)
	}
	if b := st.Bootstrap; b.FetchNS <= 0 || b.DecodeNS <= 0 || b.InstallNS <= 0 {
		t.Errorf("follower bootstrap stage times = %+v, want each positive", b)
	}
	checkMetricsParity(t, ts.URL+"/lb/metrics", &lbMetrics{})
}

// checkMetricsParity fetches url's JSON view and checks the Prometheus view
// against it. view points at the Go declaration of the body. The JSON
// decodes into it and must re-encode to the same document, so every key the
// server sent is a declared field. Rendering the decoded view then gives
// both formats of the same data, and the prom tags say which sample each
// leaf must have. Finally the server's own ?format=prom answer must carry
// the same samples (values move between two scrapes; names do not).
func checkMetricsParity(t *testing.T, url string, view any) {
	t.Helper()
	_, body := get(t, url)
	if err := json.Unmarshal([]byte(body), view); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	again, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decode(t, body), decode(t, string(again))) {
		t.Fatalf("%s sends keys its declaration lacks:\n%s", url, body)
	}
	want := make(map[string]promLeaf)
	excused := make(map[string]bool)
	declaredSeries(t, "", "", reflect.ValueOf(view), want, excused)
	if t.Failed() {
		t.FailNow()
	}
	rec := httptest.NewRecorder()
	obs.WriteMetrics(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil), view)
	samples := promSamples(t, rec.Body.String())
	for key, leaf := range want {
		got, ok := samples[key]
		switch {
		case !ok:
			t.Errorf("%s: %s has no sample %s", url, leaf.path, key)
		case got != leaf.value:
			t.Errorf("%s: %s = %v in JSON, sample %s = %v", url, leaf.path, leaf.value, key, got)
		}
	}
	for key := range samples {
		if _, ok := want[key]; !ok && !excused[promFamily(key)] {
			t.Errorf("%s: sample %s lacks a JSON leaf", url, key)
		}
	}
	_, live := get(t, url+"?format=prom")
	liveSamples := promSamples(t, live)
	for key := range samples {
		if _, ok := liveSamples[key]; !ok && !strings.Contains(key, "_bucket{") {
			t.Errorf("%s?format=prom lacks %s", url, key)
		}
	}
	for key := range liveSamples {
		if _, ok := samples[key]; !ok && !strings.Contains(key, "_bucket{") {
			t.Errorf("%s?format=prom has %s, which the JSON view does not declare", url, key)
		}
	}
}

// promLeaf is one JSON leaf and the sample value it must have.
type promLeaf struct {
	path  string
	value float64
}

// declaredSeries walks a decoded metrics view by its tags, independently of
// the renderer: each numeric or bool leaf maps to the sample its prom tag
// names (a name ending in _seconds or _seconds_total holds nanoseconds,
// rendered in seconds). A histogram leaf is checked by its _count, _sum
// and +Inf bucket, and its finite buckets are excused; an endpoint map's families are excused
// whole. A numeric leaf without a prom name, or marked JSON-only, fails.
func declaredSeries(t *testing.T, path, prefix string, v reflect.Value, want map[string]promLeaf, excused map[string]bool) {
	t.Helper()
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	for i := range v.NumField() {
		f, fv := v.Type().Field(i), v.Field(i)
		jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		leafPath := strings.TrimPrefix(path+"."+jsonName, ".")
		tag, ok := f.Tag.Lookup("prom")
		numeric := fv.CanInt() || fv.CanUint() || fv.CanFloat() || fv.Kind() == reflect.Bool
		if !ok || (tag == "-" && numeric) {
			t.Errorf("%s is a %s leaf with no prom name", leafPath, fv.Type())
			continue
		}
		if tag == "-" {
			continue
		}
		parts := strings.Split(tag, ",")
		name := prefix + parts[0]
		var labels []string
		for _, l := range parts[1:] {
			k, val, _ := strings.Cut(l, "=")
			labels = append(labels, fmt.Sprintf("%s=%q", k, val))
		}
		key := func(name string) string {
			if len(labels) == 0 {
				return name
			}
			return name + "{" + strings.Join(labels, ",") + "}"
		}
		unit := 1.0
		if strings.HasSuffix(strings.TrimSuffix(name, "_total"), "_seconds") {
			unit = 1e9
		}
		add := func(key, path string, value float64) {
			if prev, dup := want[key]; dup {
				t.Errorf("%s and %s both declare %s", prev.path, path, key)
			}
			want[key] = promLeaf{path, value}
		}
		switch x := fv.Interface().(type) {
		case obs.HistSnapshot:
			add(key(name+"_count"), leafPath+".count", float64(x.Count))
			add(key(name+"_sum"), leafPath+".sum", float64(x.Sum)/unit)
			inf := append(labels[:len(labels):len(labels)], `le="+Inf"`)
			add(name+"_bucket{"+strings.Join(inf, ",")+"}", leafPath+".count", float64(x.Count))
			excused[name+"_bucket"] = true
		case map[string]obs.EndpointMetrics:
			for _, fam := range []string{"requests_total", "request_errors_total", "not_modified_total",
				"request_seconds_bucket", "request_seconds_sum", "request_seconds_count"} {
				excused[name+fam] = true
			}
		default:
			switch {
			case fv.Kind() == reflect.Bool:
				add(key(name), leafPath, map[bool]float64{false: 0, true: 1}[fv.Bool()])
			case fv.CanInt():
				add(key(name), leafPath, float64(fv.Int())/unit)
			case fv.CanUint():
				add(key(name), leafPath, float64(fv.Uint())/unit)
			case fv.CanFloat():
				add(key(name), leafPath, fv.Float())
			default:
				declaredSeries(t, leafPath, name, fv, want, excused)
			}
		}
	}
}

// promSamples parses an exposition into sample key (name and labels) →
// value. It fails on a repeated key, on a family typed twice or a sample
// outside its family's block (a family split across the text), and on a
// counter or gauge whose type disagrees with its _total suffix.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	typed := make(map[string]bool)
	var family, typ string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, typ, _ = strings.Cut(rest, " ")
			if typed[family] {
				t.Errorf("family %s is split across the exposition", family)
			}
			typed[family] = true
			if typ != "histogram" && (typ == "counter") != strings.HasSuffix(family, "_total") {
				t.Errorf("family %s is typed %s", family, typ)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		if _, dup := out[key]; dup {
			t.Errorf("sample %s appears twice", key)
		}
		out[key] = v
		name := promFamily(key)
		if typ == "histogram" {
			name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		}
		if name != family {
			t.Errorf("sample %s sits in family %s's block", key, family)
		}
	}
	return out
}

// promFamily is a sample key's series name, labels stripped.
func promFamily(key string) string {
	name, _, _ := strings.Cut(key, "{")
	return name
}
