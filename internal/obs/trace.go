package obs

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace ID across the fleet: minted at the
// first edge that sees the request (the router, or the server for direct
// traffic) and propagated to backends, so a slow request captured by both
// the router and the replica that served it shares one ID in both
// /debug/traces dumps.
const TraceHeader = "X-Domainnet-Trace"

// maxSpans bounds the spans recorded per trace. The serving path records a
// handful (parse, snapshot, score, encode); overflow is dropped and counted
// rather than grown, keeping the in-flight trace allocation-free.
const maxSpans = 16

// DefaultSlowThreshold is the capture threshold a zero-configured Tracer
// uses: a request at or above it is captured into the ring.
const DefaultSlowThreshold = 50 * time.Millisecond

// traceRing is the capacity of the captured-trace ring.
const traceRing = 128

// Span is one named, timed section of a request, offsets relative to the
// trace's start.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Trace is one captured request: the immutable form that lives in the ring
// and is dumped by /debug/traces.
type Trace struct {
	ID       string    `json:"id"`
	Endpoint string    `json:"endpoint"`
	Note     string    `json:"note,omitempty"` // e.g. the backend a router proxied to
	Start    time.Time `json:"start"`
	DurNS    int64     `json:"dur_ns"`
	Status   int       `json:"status"`
	Spans    []Span    `json:"spans,omitempty"`
}

// Active is a trace in flight. It is pooled: a request that finishes under
// the slow threshold recycles its Active without allocating a Trace, so the
// steady-state fast path costs nothing. All methods are nil-safe — handlers
// running outside any tracer (tests, embedded use) record spans into
// nothing.
type Active struct {
	id       string // inbound TraceHeader value, or "" until capture mints one
	endpoint string
	note     string
	start    time.Time
	nspans   int
	spans    [maxSpans]Span
}

// StartSpan opens a named span. Close it with End on the returned handle;
// an unclosed span records with zero duration. Not safe for concurrent use
// within one Active — spans belong to the request goroutine.
func (a *Active) StartSpan(name string) SpanHandle {
	if a == nil || a.nspans >= maxSpans {
		return SpanHandle{}
	}
	i := a.nspans
	a.nspans++
	a.spans[i] = Span{Name: name, StartNS: time.Since(a.start).Nanoseconds()}
	return SpanHandle{a: a, idx: i}
}

// SetNote attaches a free-form label (a router records which backend served
// the request).
func (a *Active) SetNote(note string) {
	if a != nil {
		a.note = note
	}
}

// SpanHandle closes one span. The zero value (from a nil Active or span
// overflow) is a no-op.
type SpanHandle struct {
	a   *Active
	idx int
}

// End stamps the span's duration.
func (h SpanHandle) End() {
	if h.a != nil {
		sp := &h.a.spans[h.idx]
		sp.DurNS = time.Since(h.a.start).Nanoseconds() - sp.StartNS
	}
}

// ActiveFrom extracts the in-flight trace from the StatusWriter that
// Instrumented (or a NewStatusWriter caller) hands its handler, nil (safe to
// record into) for any other ResponseWriter. Handlers reach their trace
// through the writer instead of a request context, so the request path
// allocates nothing for it.
func ActiveFrom(w http.ResponseWriter) *Active {
	if sw, ok := w.(*StatusWriter); ok {
		return sw.active
	}
	return nil
}

// Tracer captures slow requests into a ring that keeps the most recent 128.
// The zero value works, at DefaultSlowThreshold. Configure before serving.
type Tracer struct {
	// SlowThreshold gates capture: a finished trace at or above it enters
	// the ring. Zero means DefaultSlowThreshold; negative means capture
	// everything (the debugging mode process tests run with).
	SlowThreshold time.Duration

	started  atomic.Int64 // traces begun (≈ requests through instrumentation)
	captured atomic.Int64 // traces that entered the ring
	evicted  atomic.Int64 // captured traces displaced by newer ones

	pool sync.Pool

	mu   sync.Mutex
	ring []*Trace // at most traceRing, oldest overwritten first
	next int      // ring write cursor
}

// Start opens a trace for one request. inboundID is the request's
// TraceHeader value ("" mints one lazily at capture time, so untraced fast
// requests never pay for ID generation). Finish must be called exactly once.
func (t *Tracer) Start(endpoint, inboundID string) *Active {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	a, _ := t.pool.Get().(*Active)
	if a == nil {
		a = &Active{}
	}
	*a = Active{id: inboundID, endpoint: endpoint, start: time.Now()}
	return a
}

// Finish closes the trace: slow (or threshold-negative) traces are copied
// into the ring; everything else is recycled without allocating. It returns
// the trace's ID and whether it was captured ("" when not captured and no
// inbound ID existed — nothing was minted for a trace nobody will see).
func (t *Tracer) Finish(a *Active, status int) (id string, captured bool) {
	if t == nil || a == nil {
		return "", false
	}
	dur := time.Since(a.start)
	threshold := t.SlowThreshold
	if threshold == 0 {
		threshold = DefaultSlowThreshold
	}
	if dur < threshold && threshold > 0 {
		id = a.id
		t.pool.Put(a)
		return id, false
	}
	if a.id == "" {
		a.id = NewTraceID()
	}
	tr := &Trace{
		ID:       a.id,
		Endpoint: a.endpoint,
		Note:     a.note,
		Start:    a.start,
		DurNS:    dur.Nanoseconds(),
		Status:   status,
		Spans:    append([]Span(nil), a.spans[:a.nspans]...),
	}
	t.capture(tr)
	id = a.id
	t.pool.Put(a)
	return id, true
}

func (t *Tracer) capture(tr *Trace) {
	t.mu.Lock()
	if len(t.ring) < traceRing {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.evicted.Add(1)
	}
	t.next = (t.next + 1) % traceRing
	t.mu.Unlock()
	t.captured.Add(1)
}

// Traces returns the captured ring, oldest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Until the ring is full, next is its length and ring[next:] is empty.
	out := make([]*Trace, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// TracerStats is the tracer's counter snapshot, published in /metrics. Its
// prom tags are relative to its section's prefix.
type TracerStats struct {
	Started     int64 `json:"started" prom:"traces_total,stage=started"`
	Captured    int64 `json:"captured" prom:"traces_total,stage=captured"`
	Evicted     int64 `json:"evicted" prom:"traces_total,stage=evicted"`
	ThresholdNS int64 `json:"threshold_ns" prom:"trace_threshold_seconds"`
}

// Stats reports the tracer's counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	threshold := t.SlowThreshold
	if threshold == 0 {
		threshold = DefaultSlowThreshold
	}
	return TracerStats{
		Started:     t.started.Load(),
		Captured:    t.captured.Load(),
		Evicted:     t.evicted.Load(),
		ThresholdNS: threshold.Nanoseconds(),
	}
}

// ServeHTTP serves GET /debug/traces: the captured ring, oldest first, with
// the tracer's counters. Each trace carries its propagated ID and per-phase
// spans, and a router-forwarded one the backend that served it.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	traces := t.Traces()
	if traces == nil {
		traces = []*Trace{}
	}
	writeJSON(w, map[string]any{"tracer": t.Stats(), "traces": traces})
}

// NewTraceID mints a 16-hex-char trace ID. math/rand/v2's global generator
// is seeded per process and safe for concurrent use; trace IDs need
// uniqueness among a ring of recent requests, not cryptographic strength.
func NewTraceID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}
