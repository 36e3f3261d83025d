package obs

import (
	"net/http"
	"time"
)

// StatusWriter wraps a ResponseWriter to capture the response status for
// endpoint accounting and to carry the request's in-flight trace to handlers,
// which see it as their plain ResponseWriter and reach the trace with
// ActiveFrom. Every StatusWriter comes from NewStatusWriter.
type StatusWriter struct {
	http.ResponseWriter
	Code   int
	active *Active
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces (Flusher, deadlines) through the wrapper.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// NewStatusWriter wraps w, starting at status 200 and carrying trace a.
// Instrumented builds its per-request writer with it, and so does the
// router's proxy path, which instruments by hand because it mints trace IDs
// eagerly for propagation.
func NewStatusWriter(w http.ResponseWriter, a *Active) *StatusWriter {
	return &StatusWriter{ResponseWriter: w, Code: http.StatusOK, active: a}
}

// Instrumented wraps a handler with per-endpoint accounting (count, errors,
// 304s, latency histogram) and slow-request tracing. The per-request cost is
// one StatusWriter allocation and a handful of atomic adds; the trace Active
// is pooled and an uncaptured trace recycles without allocating. A request
// arriving with a TraceHeader (stamped by the router) has it echoed on the
// response and adopted as the trace's ID, so a slow request captured at both
// router and backend shares one ID. Both es and t may be nil-safe zero
// values; a nil Tracer disables tracing without disabling accounting.
func Instrumented(es *Endpoints, t *Tracer, name string, h http.HandlerFunc) http.HandlerFunc {
	e := es.Get(name)
	return func(w http.ResponseWriter, r *http.Request) {
		a := t.Start(name, r.Header.Get(TraceHeader))
		if a != nil && a.id != "" {
			w.Header().Set(TraceHeader, a.id)
		}
		sw := NewStatusWriter(w, a)
		start := time.Now()
		h(sw, r)
		e.Record(sw.Code, time.Since(start))
		t.Finish(a, sw.Code)
	}
}
