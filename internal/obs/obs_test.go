package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestObsEndpointRecord: status classification — errors at >= 400, 304s as
// not_modified (a cache answering without a body is not an error), and the
// derived latency fields agree with the histogram.
func TestObsEndpointRecord(t *testing.T) {
	var es Endpoints
	e := es.Get("topk")
	if es.Get("topk") != e {
		t.Fatal("Get must return the same endpoint for the same name")
	}
	e.Record(200, 10*time.Millisecond)
	e.Record(304, 1*time.Millisecond)
	e.Record(404, 2*time.Millisecond)
	e.Record(500, 3*time.Millisecond)

	m := e.Metrics()
	if m.Count != 4 || m.Errors != 2 || m.NotModified != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.TotalNS != (16 * time.Millisecond).Nanoseconds() {
		t.Fatalf("total = %d", m.TotalNS)
	}
	if m.AvgNS != m.TotalNS/4 {
		t.Fatalf("avg = %d", m.AvgNS)
	}
	if m.MaxNS != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("max = %d", m.MaxNS)
	}
	if m.P50NS <= 0 || m.P99NS < m.P50NS || m.P99NS > m.MaxNS {
		t.Fatalf("quantiles out of order: p50=%d p99=%d max=%d", m.P50NS, m.P99NS, m.MaxNS)
	}
	all := es.Metrics()
	if len(all) != 1 || all["topk"].Count != 4 {
		t.Fatalf("registry metrics = %+v", all)
	}
}

// discardWriter is the leanest possible ResponseWriter: the allocation
// budget below must measure the middleware, not the recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestInstrumentedAllocBudget: the middleware's per-request cost — the
// status wrapper, one histogram observation, the counters, and a pooled
// trace with one span that recycles uncaptured under the default slow gate
// — is at most 2 allocations, and the accounting loses no request.
func TestInstrumentedAllocBudget(t *testing.T) {
	es := &Endpoints{}
	tr := &Tracer{}
	h := Instrumented(es, tr, "noop", func(w http.ResponseWriter, r *http.Request) {
		sp := ActiveFrom(w).StartSpan("work")
		sp.End()
		w.WriteHeader(http.StatusOK)
	})
	req := httptest.NewRequest(http.MethodGet, "/noop", nil)
	w := &discardWriter{h: make(http.Header)}
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, func() { h(w, req) }); allocs > 2 {
		t.Errorf("instrumented no-op request costs %.0f allocs/op, budget is 2", allocs)
	}
	if w.code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.code)
	}
	if m := es.Get("noop").Metrics(); m.Count < runs || m.P99NS <= 0 {
		t.Errorf("accounting lost requests after %d runs: %+v", runs, m)
	}
	if st := tr.Stats(); st.Captured != 0 {
		t.Errorf("default slow gate captured %d fast traces", st.Captured)
	}
}

// TestObsMergeMetrics: the router's fleet fold — counters add, histograms
// merge bucket-wise, quantiles recompute over the union, sources unchanged.
func TestObsMergeMetrics(t *testing.T) {
	var a, b Endpoints
	ea := a.Get("topk")
	for i := 0; i < 100; i++ {
		ea.Record(200, time.Millisecond)
	}
	eb := b.Get("topk")
	for i := 0; i < 100; i++ {
		eb.Record(200, 100*time.Millisecond)
	}
	b.Get("score").Record(500, 5*time.Millisecond)

	am, bm := a.Metrics(), b.Metrics()
	fleet := make(map[string]EndpointMetrics)
	MergeMetrics(fleet, am)
	MergeMetrics(fleet, bm)

	topk := fleet["topk"]
	if topk.Count != 200 {
		t.Fatalf("merged count = %d", topk.Count)
	}
	// Half the union's samples are 1ms, half 100ms: the p95 must reflect the
	// slow replica — this is exactly what averaging per-replica quantiles
	// would get wrong (avg of 1ms and 100ms p95s ≈ 50ms).
	p95 := topk.P95NS
	if p95 < (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("fleet p95 = %s, must come from the slow replica's samples", time.Duration(p95))
	}
	if topk.MaxNS < (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("fleet max = %d", topk.MaxNS)
	}
	if fleet["score"].Errors != 1 {
		t.Fatalf("score = %+v", fleet["score"])
	}
	// Merge must not have mutated the per-replica snapshots.
	if am["topk"].Count != 100 || bm["topk"].Count != 100 {
		t.Fatal("merge mutated a source map")
	}
	// Fold the other way: same result (associativity at the metrics level).
	fleet2 := make(map[string]EndpointMetrics)
	MergeMetrics(fleet2, bm)
	MergeMetrics(fleet2, am)
	if fleet2["topk"].Count != 200 || fleet2["topk"].P95NS != p95 {
		t.Fatalf("fold order changed the result: %+v", fleet2["topk"])
	}
}

// promText renders v through WriteMetrics' Prometheus view.
func promText(t *testing.T, v any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteMetrics(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil), v)
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	return rec.Body.String()
}

// TestObsPromRender: the text exposition is structurally valid — one TYPE
// line per family, cumulative le-buckets ending at +Inf == count, seconds
// units, escaped labels.
func TestObsPromRender(t *testing.T) {
	var es Endpoints
	for _, d := range []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 80 * time.Millisecond} {
		es.Get("topk").Record(http.StatusOK, d)
	}
	es.Get("score").Record(http.StatusOK, time.Millisecond)
	text := promText(t, struct {
		Endpoints  map[string]EndpointMetrics `prom:"domainnet_"`
		Goroutines int64                      `prom:"domainnet_goroutines"`
	}{es.Metrics(), 12})

	if n := strings.Count(text, "# TYPE domainnet_requests_total counter"); n != 1 {
		t.Fatalf("TYPE line emitted %d times:\n%s", n, text)
	}
	if !strings.Contains(text, `domainnet_requests_total{endpoint="topk"} 3`) ||
		!strings.Contains(text, `domainnet_requests_total{endpoint="score"} 1`) {
		t.Fatalf("missing counter sample:\n%s", text)
	}
	if !strings.Contains(text, "\ndomainnet_goroutines 12\n") {
		t.Fatalf("missing bare gauge:\n%s", text)
	}
	if !strings.Contains(text, `domainnet_request_seconds_bucket{endpoint="topk",le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket must equal count:\n%s", text)
	}
	if !strings.Contains(text, `domainnet_request_seconds_count{endpoint="topk"} 3`) {
		t.Fatalf("missing _count:\n%s", text)
	}
	// Buckets are seconds and cumulative: the first non-empty bucket holds
	// the two 5ms samples, upper bound ≈ 0.005s (within the 12.5% bucket
	// width), strictly before the 80ms one.
	var les []float64
	var cums []int64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `domainnet_request_seconds_bucket{endpoint="topk"`) || strings.Contains(line, "+Inf") {
			continue
		}
		le, cum, err := parseBucketLine(line)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		les = append(les, le)
		cums = append(cums, cum)
	}
	if len(les) != 2 {
		t.Fatalf("want 2 non-empty buckets, got %d:\n%s", len(les), text)
	}
	if les[0] < 0.005 || les[0] > 0.005*1.13 {
		t.Fatalf("first bucket le=%v, want ~0.005s", les[0])
	}
	if cums[0] != 2 || cums[1] != 3 {
		t.Fatalf("cumulative counts = %v", cums)
	}
	if les[1] <= les[0] {
		t.Fatalf("bucket bounds not increasing: %v", les)
	}

	// Label escaping: quotes and newlines cannot break the line structure.
	hostile := promText(t, struct {
		Endpoints map[string]EndpointMetrics `prom:"x_"`
	}{map[string]EndpointMetrics{"a\"b\nc": {Count: 1}}})
	for _, line := range strings.Split(strings.TrimSuffix(hostile, "\n"), "\n") {
		if !strings.HasPrefix(line, "# TYPE x_") && !strings.HasPrefix(line, "x_") {
			t.Fatalf("escaped label broke line structure:\n%q", hostile)
		}
	}
}

// TestObsPromDeclarations: every rule of the prom tag — counter by the
// _total suffix, gauge otherwise, labels, nanoseconds rendered as seconds,
// bools as 0/1, histograms in their declared unit, nested prefixes through
// structs, pointers and interfaces, nil sections and "-" fields skipped —
// while the JSON view is plain encoding/json of the same struct.
func TestObsPromDeclarations(t *testing.T) {
	type section struct {
		Hits   int64 `json:"hits" prom:"reads_total,cache=hit"`
		Misses int64 `json:"misses" prom:"reads_total,cache=miss"`
	}
	var h Hist
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	view := struct {
		Version   uint64       `json:"version" prom:"x_version"`
		Up        bool         `json:"up" prom:"x_up"`
		Ratio     float64      `json:"ratio" prom:"x_ratio"`
		PauseNS   int64        `json:"pause_ns" prom:"x_pause_seconds"`
		PausedNS  int64        `json:"paused_ns" prom:"x_pause_seconds_total"`
		Sizes     HistSnapshot `json:"sizes" prom:"x_sizes"`
		Names     []string     `json:"names" prom:"-"`
		Section   section      `json:"section" prom:"x_"`
		Pointer   *section     `json:"pointer" prom:"x_ptr_"`
		Interface any          `json:"iface" prom:"x_if_"`
		Absent    *section     `json:"absent,omitempty" prom:"x_absent_"`
	}{
		Version: 7, Up: true, Ratio: 0.5, PauseNS: 1500, PausedNS: 2e9,
		Sizes: h.Snapshot(), Names: []string{"a"},
		Section: section{Hits: 2, Misses: 1}, Pointer: &section{Hits: 4}, Interface: section{Misses: 9},
	}
	text := promText(t, view)
	for _, want := range []string{
		"# TYPE x_version gauge\nx_version 7\n",
		"# TYPE x_up gauge\nx_up 1\n",
		"x_ratio 0.5\n",
		"# TYPE x_pause_seconds gauge\nx_pause_seconds 1.5e-06\n",
		"# TYPE x_pause_seconds_total counter\nx_pause_seconds_total 2\n",
		"# TYPE x_sizes histogram\n",
		`x_sizes_bucket{le="0"} 1` + "\n",
		`x_sizes_bucket{le="3"} 3` + "\n",
		"x_sizes_sum 6\nx_sizes_count 3\n",
		"# TYPE x_reads_total counter\n" + `x_reads_total{cache="hit"} 2` + "\n" + `x_reads_total{cache="miss"} 1` + "\n",
		`x_ptr_reads_total{cache="hit"} 4` + "\n",
		`x_if_reads_total{cache="miss"} 9` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "absent") || strings.Contains(text, "names") {
		t.Errorf("nil section or JSON-only field rendered:\n%s", text)
	}

	rec := httptest.NewRecorder()
	WriteMetrics(rec, httptest.NewRequest("GET", "/metrics", nil), view)
	want, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != string(want) {
		t.Errorf("JSON view is not encoding/json of the struct:\n%s\nwant\n%s", got, want)
	}
}

// TestObsPromUndeclaredField: a field without a prom tag is a declaration
// error, caught at the first scrape instead of silently missing from the
// Prometheus view.
func TestObsPromUndeclaredField(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Forgot") {
			t.Fatalf("recover() = %v, want a panic naming the undeclared field", r)
		}
	}()
	promText(t, struct {
		Version int64 `json:"version" prom:"x_version"`
		Forgot  int64 `json:"forgot"`
	}{})
}

// parseBucketLine pulls le and the cumulative count out of one bucket line.
func parseBucketLine(line string) (le float64, cum int64, err error) {
	i := strings.Index(line, `le="`)
	if i < 0 {
		return 0, 0, errors.New("no le label")
	}
	j := strings.Index(line[i+4:], `"`)
	if j < 0 {
		return 0, 0, errors.New("unterminated le label")
	}
	le, err = strconv.ParseFloat(line[i+4:i+4+j], 64)
	if err != nil {
		return 0, 0, err
	}
	k := strings.LastIndex(line, " ")
	cum, err = strconv.ParseInt(line[k+1:], 10, 64)
	return le, cum, err
}

// TestObsRuntimeStats: the runtime reader returns live, plausible values.
func TestObsRuntimeStats(t *testing.T) {
	rs := ReadRuntime()
	if rs.Goroutines < 1 {
		t.Fatalf("goroutines = %d", rs.Goroutines)
	}
	if rs.HeapBytes <= 0 {
		t.Fatalf("heap = %d", rs.HeapBytes)
	}
	if rs.TotalAllocBytes < rs.HeapBytes {
		t.Fatalf("cumulative allocs %d below live heap %d", rs.TotalAllocBytes, rs.HeapBytes)
	}
}
