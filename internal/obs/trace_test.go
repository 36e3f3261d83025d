package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestTraceCaptureEverything: a negative threshold captures every trace —
// the mode fleet tests run with so even microsecond requests show up in
// /debug/traces.
func TestTraceCaptureEverything(t *testing.T) {
	tr := &Tracer{SlowThreshold: -1}
	a := tr.Start("topk", "")
	sp := a.StartSpan("score")
	sp.End()
	id, captured := tr.Finish(a, 200)
	if !captured {
		t.Fatal("negative threshold must capture")
	}
	if len(id) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", id)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.ID != id || got.Endpoint != "topk" || got.Status != 200 {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "score" {
		t.Fatalf("spans = %+v", got.Spans)
	}
}

// TestTraceSlowGate: under the default threshold, fast requests are recycled
// without capture and without minting an ID; an inbound ID is still echoed
// back for header propagation.
func TestTraceSlowGate(t *testing.T) {
	tr := &Tracer{} // zero value: DefaultSlowThreshold
	a := tr.Start("score", "")
	id, captured := tr.Finish(a, 200)
	if captured || id != "" {
		t.Fatalf("fast uncorrelated request: id=%q captured=%v", id, captured)
	}
	a = tr.Start("score", "cafe0123cafe0123")
	id, captured = tr.Finish(a, 200)
	if captured {
		t.Fatal("fast request must not be captured")
	}
	if id != "cafe0123cafe0123" {
		t.Fatalf("inbound ID not preserved: %q", id)
	}
	st := tr.Stats()
	if st.Started != 2 || st.Captured != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ThresholdNS != DefaultSlowThreshold.Nanoseconds() {
		t.Fatalf("threshold = %d", st.ThresholdNS)
	}

	// An actually-slow request is captured with its inbound ID intact.
	slow := &Tracer{SlowThreshold: time.Microsecond}
	a = slow.Start("topk", "beef4567beef4567")
	time.Sleep(2 * time.Millisecond)
	id, captured = slow.Finish(a, 200)
	if !captured || id != "beef4567beef4567" {
		t.Fatalf("slow request: id=%q captured=%v", id, captured)
	}
	traces := slow.Traces()
	if len(traces) != 1 || traces[0].ID != "beef4567beef4567" {
		t.Fatalf("traces = %+v", traces)
	}
	if traces[0].DurNS < (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("duration %dns below the sleep", traces[0].DurNS)
	}
}

// TestTraceRingEviction: the ring keeps the most recent traceRing traces,
// oldest first, and counts evictions.
func TestTraceRingEviction(t *testing.T) {
	tr := &Tracer{SlowThreshold: -1}
	const total = traceRing + 6
	for i := 0; i < total; i++ {
		a := tr.Start("e", fmt.Sprintf("%016x", i))
		tr.Finish(a, 200)
	}
	traces := tr.Traces()
	if len(traces) != traceRing {
		t.Fatalf("ring length %d, want %d", len(traces), traceRing)
	}
	for i, want := 0, 6; i < traceRing; i, want = i+1, want+1 {
		if traces[i].ID != fmt.Sprintf("%016x", want) {
			t.Fatalf("ring[%d] = %s, want index %d (oldest first)", i, traces[i].ID, want)
		}
	}
	st := tr.Stats()
	if st.Started != total || st.Captured != total || st.Evicted != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTraceNilSafety: all Active and Tracer methods must be no-ops on nil —
// handlers run identically with tracing absent.
func TestTraceNilSafety(t *testing.T) {
	var a *Active
	sp := a.StartSpan("x")
	sp.End()
	a.SetNote("n")
	var tr *Tracer
	if got := tr.Start("e", ""); got != nil {
		t.Fatal("nil tracer must start nil trace")
	}
	if id, captured := tr.Finish(nil, 200); id != "" || captured {
		t.Fatal("nil finish must be a no-op")
	}
	if tr.Traces() != nil {
		t.Fatal("nil tracer has no traces")
	}
	if tr.Stats() != (TracerStats{}) {
		t.Fatal("nil tracer stats must be zero")
	}
	if got := ActiveFrom(httptest.NewRecorder()); got != nil {
		t.Fatal("plain ResponseWriter must carry no trace")
	}
}

// TestActiveFromCarrier: handlers reach the in-flight trace through the
// ResponseWriter, spans recorded there land in the captured trace.
func TestActiveFromCarrier(t *testing.T) {
	tr := &Tracer{SlowThreshold: -1}
	a := tr.Start("topk", "")
	w := NewStatusWriter(httptest.NewRecorder(), a)

	handler := func(w http.ResponseWriter, _ *http.Request) {
		act := ActiveFrom(w)
		sp := act.StartSpan("parse")
		sp.End()
		sp = act.StartSpan("encode")
		sp.End()
		act.SetNote("backend-a")
	}
	handler(w, httptest.NewRequest("GET", "/topk", nil))
	tr.Finish(a, 200)

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	got := traces[0]
	if got.Note != "backend-a" {
		t.Fatalf("note = %q", got.Note)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "parse" || got.Spans[1].Name != "encode" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[1].StartNS < got.Spans[0].StartNS {
		t.Fatal("span order lost")
	}
}

// TestTraceSpanOverflow: more than maxSpans spans are dropped, not grown —
// the in-flight trace never allocates.
func TestTraceSpanOverflow(t *testing.T) {
	tr := &Tracer{SlowThreshold: -1}
	a := tr.Start("e", "")
	for i := 0; i < maxSpans+5; i++ {
		sp := a.StartSpan(fmt.Sprintf("s%d", i))
		sp.End()
	}
	tr.Finish(a, 200)
	got := tr.Traces()[0]
	if len(got.Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(got.Spans), maxSpans)
	}
}

// TestTraceConcurrentStorm: many goroutines start/span/finish against one
// tracer while another dumps the ring. Run under -race in CI.
func TestTraceConcurrentStorm(t *testing.T) {
	tr := &Tracer{SlowThreshold: -1}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a := tr.Start("storm", "")
				sp := a.StartSpan("work")
				sp.End()
				tr.Finish(a, 200)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, trc := range tr.Traces() {
				if trc == nil || trc.Endpoint != "storm" {
					t.Error("corrupt trace in ring")
					return
				}
			}
		}
	}()
	wg.Wait()
	st := tr.Stats()
	if st.Started != 4000 || st.Captured != 4000 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(tr.Traces()); got != traceRing {
		t.Fatalf("ring length %d, want %d", got, traceRing)
	}
}

// TestNewTraceIDUniqueness: IDs are 16 hex chars and collisions across a
// realistic ring's worth of mints are absurd.
func TestNewTraceIDUniqueness(t *testing.T) {
	seen := make(map[string]bool, 4096)
	for i := 0; i < 4096; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("id %q not 16 chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
