package obs

import (
	"errors"
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

// TestObsPromRender: the text exposition is structurally valid — one TYPE
// line per family, cumulative le-buckets ending at +Inf == count, seconds
// units, escaped labels.
func TestObsPromRender(t *testing.T) {
	var h Hist
	h.Observe((5 * time.Millisecond).Nanoseconds())
	h.Observe((5 * time.Millisecond).Nanoseconds())
	h.Observe((80 * time.Millisecond).Nanoseconds())
	s := h.Snapshot()

	var p PromWriter
	p.Counter("domainnet_requests_total", 3, "endpoint", "topk")
	p.Counter("domainnet_requests_total", 1, "endpoint", "score")
	p.Gauge("domainnet_goroutines", 12)
	p.Histogram("domainnet_request_seconds", s, "endpoint", "topk")
	text := string(p.Bytes())

	if n := strings.Count(text, "# TYPE domainnet_requests_total counter"); n != 1 {
		t.Fatalf("TYPE line emitted %d times:\n%s", n, text)
	}
	if !strings.Contains(text, `domainnet_requests_total{endpoint="topk"} 3`) {
		t.Fatalf("missing counter sample:\n%s", text)
	}
	if !strings.Contains(text, "domainnet_goroutines 12") {
		t.Fatalf("missing bare gauge:\n%s", text)
	}
	if !strings.Contains(text, `le="+Inf"} 3`) {
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
		if !strings.HasPrefix(line, "domainnet_request_seconds_bucket") || strings.Contains(line, "+Inf") {
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
	var p2 PromWriter
	p2.Counter("x_total", 1, "name", "a\"b\nc")
	if got := string(p2.Bytes()); strings.Count(got, "\n") != 2 {
		t.Fatalf("escaped label broke line structure:\n%q", got)
	}
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
