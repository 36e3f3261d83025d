package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint accumulates one endpoint's request accounting: counters plus a
// log-bucketed latency histogram. All recording is atomic — handlers update
// concurrently and scrapes read without coordination.
type Endpoint struct {
	count       atomic.Int64
	errors      atomic.Int64 // responses with status >= 400
	notModified atomic.Int64 // 304s — the response cache answering without a body
	hist        Hist
}

// Record books one finished request.
func (e *Endpoint) Record(status int, d time.Duration) {
	e.count.Add(1)
	switch {
	case status >= 400:
		e.errors.Add(1)
	case status == 304:
		e.notModified.Add(1)
	}
	e.hist.ObserveDuration(d)
}

// Metrics snapshots the endpoint for /metrics. Merging the counters into
// the zero value derives the latency fields from the histogram, exactly as
// a fleet merge does.
func (e *Endpoint) Metrics() EndpointMetrics {
	var m EndpointMetrics
	m.Merge(EndpointMetrics{
		Count:       e.count.Load(),
		Errors:      e.errors.Load(),
		NotModified: e.notModified.Load(),
		Hist:        e.hist.Snapshot(),
	})
	return m
}

// EndpointMetrics is the wire form of one endpoint's accounting: what
// /metrics publishes per endpoint and what the router's /lb/metrics merge
// consumes. Quantiles are precomputed for humans; Hist carries the raw
// buckets so merges recompute quantiles over the union of samples instead
// of averaging per-replica quantiles.
type EndpointMetrics struct {
	Count       int64        `json:"count"`
	Errors      int64        `json:"errors"`
	NotModified int64        `json:"not_modified"`
	TotalNS     int64        `json:"total_ns"`
	AvgNS       int64        `json:"avg_ns"`
	MaxNS       int64        `json:"max_ns"`
	P50NS       int64        `json:"p50_ns"`
	P95NS       int64        `json:"p95_ns"`
	P99NS       int64        `json:"p99_ns"`
	Hist        HistSnapshot `json:"hist"`
}

// Merge folds o into m (histogram bucket-wise), recomputing the derived
// latency fields from the merged histogram.
func (m *EndpointMetrics) Merge(o EndpointMetrics) {
	m.Count += o.Count
	m.Errors += o.Errors
	m.NotModified += o.NotModified
	m.Hist.Merge(o.Hist)
	m.TotalNS = m.Hist.Sum
	m.AvgNS = m.Hist.Mean()
	m.MaxNS = m.Hist.Max
	m.P50NS = m.Hist.Quantile(0.50)
	m.P95NS = m.Hist.Quantile(0.95)
	m.P99NS = m.Hist.Quantile(0.99)
}

// Endpoints is a named collection of endpoint stats. The zero value is
// ready to use. It outlives any single server: a replication follower keeps
// one across re-bootstraps so its accounting survives snapshot swaps, and
// hands it to each replica server it installs.
type Endpoints struct {
	mu     sync.RWMutex
	m      map[string]*Endpoint
	shared map[string]any
}

// Shared returns the value kept under key, storing mk() there on first use.
// It holds a server's other counters (serve's publish and warm counters), so
// that they survive a re-bootstrap the way endpoint accounting does.
func (es *Endpoints) Shared(key string, mk func() any) any {
	es.mu.Lock()
	defer es.mu.Unlock()
	v, ok := es.shared[key]
	if !ok {
		if es.shared == nil {
			es.shared = make(map[string]any)
		}
		v = mk()
		es.shared[key] = v
	}
	return v
}

// Get returns the named endpoint's stats, creating them on first use.
func (es *Endpoints) Get(name string) *Endpoint {
	es.mu.RLock()
	e := es.m[name]
	es.mu.RUnlock()
	if e != nil {
		return e
	}
	es.mu.Lock()
	defer es.mu.Unlock()
	if e = es.m[name]; e == nil {
		if es.m == nil {
			es.m = make(map[string]*Endpoint)
		}
		e = &Endpoint{}
		es.m[name] = e
	}
	return e
}

// Metrics snapshots every endpoint.
func (es *Endpoints) Metrics() map[string]EndpointMetrics {
	es.mu.RLock()
	defer es.mu.RUnlock()
	out := make(map[string]EndpointMetrics, len(es.m))
	for name, e := range es.m {
		out[name] = e.Metrics()
	}
	return out
}

// MergeMetrics folds src into dst endpoint-wise, creating entries as
// needed — the router's fleet-wide aggregation step.
func MergeMetrics(dst, src map[string]EndpointMetrics) {
	for name, sm := range src {
		// A new endpoint merges into the zero value, which copies src's
		// buckets into a map of its own: merging never aliases src.
		dm := dst[name]
		dm.Merge(sm)
		dst[name] = dm
	}
}
