package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval recorded from outside the program: around a call into
// a module's public API, a serve.Options hook, or an HTTP handler. Spans of
// one operation share Trace; the operation itself is the root span (Parent
// 0), named after its kind: "op" for the workload's measured operation,
// "write" and "visible" for write_fleet's writes and their replication, and
// "prep" for replica_join's leader-side stages, timed apart from any
// operation.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: recording does nothing, and no HTTP wrapper is installed.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(name string, id, trace, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Trace: trace,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn and records it as a child span of parent.
func (t *tracer) timed(name string, trace, parent uint64, fn func()) {
	if t == nil || trace == 0 {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.add(name, t.newID(), trace, parent, start, time.Now())
}

// spanHeader carries "<trace>/<parent span>" across HTTP hops. The router's
// reverse proxy forwards request headers, which is what links a router span
// to the backend span beneath it.
const spanHeader = "X-Bench-Span"

func formatSpanHeader(trace, parent uint64) string {
	return strconv.FormatUint(trace, 10) + "/" + strconv.FormatUint(parent, 10)
}

func parseSpanHeader(v string) (trace, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return trace, parent, err1 == nil && err2 == nil
}

// wrap records a span around every traced request h serves, named by name,
// and re-parents the span header onto it so the next hop links below.
// before, when non-nil, learns the span's identity before h runs (the leader
// uses it to link its OnCommit hook to the upload that triggered it).
func (t *tracer) wrap(h http.Handler, name func(*http.Request) string, before func(r *http.Request, trace, id uint64)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		r.Header.Set(spanHeader, formatSpanHeader(trace, id))
		if before != nil {
			before(r, trace, id)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name(r), id, trace, parent, start, time.Now())
	})
}

// traceSet is the recorded spans grouped by trace, with each trace's root.
type traceSet struct {
	byTrace map[uint64][]span
	roots   map[uint64]span
}

func (t *tracer) collect() traceSet {
	ts := traceSet{byTrace: map[uint64][]span{}, roots: map[uint64]span{}}
	if t == nil {
		return ts
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		ts.byTrace[s.Trace] = append(ts.byTrace[s.Trace], s)
		if s.Parent == 0 {
			ts.roots[s.Trace] = s
		}
	}
	return ts
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations in ms of every span with the given name
// under roots of the given kind.
func (ts traceSet) durations(kind, name string) []float64 {
	var out []float64
	for id, root := range ts.roots {
		if root.Name != kind {
			continue
		}
		for _, s := range ts.byTrace[id] {
			if s.Name == name {
				out = append(out, float64(s.dur())/1e6)
			}
		}
	}
	return out
}

// selfTimes returns, in ms, each named span's duration minus the part of it
// its direct children cover, under roots of the given kind.
func (ts traceSet) selfTimes(kind, name string) []float64 {
	var out []float64
	for id, root := range ts.roots {
		if root.Name != kind {
			continue
		}
		spans := ts.byTrace[id]
		for _, s := range spans {
			if s.Name != name {
				continue
			}
			var kids []span
			for _, c := range spans {
				if c.Parent == s.ID {
					kids = append(kids, c)
				}
			}
			out = append(out, float64(s.dur()-covered(s, kids))/1e6)
		}
	}
	return out
}

// covered is how much of s's interval the union of spans covers.
func covered(s span, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range spans {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// attribution splits the time of every root of the given kind among the
// layers: each instant of a root goes to the deepest span covering it — and
// among equally deep spans to the one ending last, the one the operation
// waited for — so a layer's share is its self time along the blocking path.
// Instants no span below the root covers are unattributed. Shares are of
// the summed root time, so they and unattributed add up to one.
func (ts traceSet) attribution(kind string) (shares map[string]float64, unattributed float64, roots int) {
	byLayer := map[string]int64{}
	var total, none int64
	for id, root := range ts.roots {
		if root.Name != kind || root.dur() <= 0 {
			continue
		}
		roots++
		total += root.dur()
		spans := ts.byTrace[id]
		depth := spanDepths(spans, root.ID)
		cuts := []int64{root.Start, root.End}
		for _, s := range spans {
			if s.ID != root.ID && depth[s.ID] > 0 {
				cuts = append(cuts, min(max(s.Start, root.Start), root.End), min(max(s.End, root.Start), root.End))
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if a == b {
				continue
			}
			var best *span
			for j := range spans {
				s := &spans[j]
				d := depth[s.ID]
				if d == 0 || s.Start > a || s.End < b {
					continue
				}
				if best == nil || d > depth[best.ID] || (d == depth[best.ID] && s.End > best.End) {
					best = s
				}
			}
			if best == nil {
				none += b - a
			} else {
				byLayer[best.layer()] += b - a
			}
		}
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0, 0
	}
	for l, ns := range byLayer {
		shares[l] = float64(ns) / float64(total)
	}
	return shares, float64(none) / float64(total), roots
}

// spanDepths maps each span reachable from root to its depth below it (the
// root is 0; spans not under root are absent, reading 0).
func spanDepths(spans []span, root uint64) map[uint64]int {
	kids := map[uint64][]uint64{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
	}
	depth := map[uint64]int{}
	frontier := []uint64{root}
	for d := 1; len(frontier) > 0; d++ {
		var next []uint64
		for _, p := range frontier {
			for _, c := range kids[p] {
				if _, seen := depth[c]; !seen && c != root {
					depth[c] = d
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return depth
}

// spansPath is where a traced run writes its spans when -trace is "1".
func spansPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-%d.jsonl", dir, workload, seed)
}
