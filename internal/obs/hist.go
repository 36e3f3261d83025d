// Package obs is the fleet's zero-dependency observability core: lock-free
// log-bucketed latency histograms with quantile estimation (hist.go),
// per-endpoint request accounting shared across server rebuilds
// (endpoint.go), slow-request tracing with a bounded ring of captured traces
// (trace.go), runtime telemetry via runtime/metrics (runtime.go), and
// WriteMetrics (prom.go), which renders one tagged view struct as JSON or as
// the Prometheus text exposition, so both formats share one declaration and
// standard scrapers work without a client library.
//
// Everything on the request path is allocation-free and lock-free: a
// histogram observation is one atomic add into a log-spaced bucket, an
// endpoint record is a handful of atomic adds, and a trace that ends up not
// captured (faster than the slow threshold) returns to a pool. The
// aggregation side (quantiles, merging, rendering) runs only when something
// asks — a /metrics scrape, a /lb/metrics fleet merge — and works on
// snapshots, so it never contends with recording.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket layout: values (nanoseconds) are binned by octave (the position
// of the highest set bit) subdivided into histSub linear sub-buckets, so the
// bucket holding v spans at most a (1 + 1/histSub) ratio — every quantile
// estimate is within histRelError of some value actually observed. 64
// octaves x 8 sub-buckets = 512 counters = 4 KiB per histogram; endpoints
// are few, so the memory cost is irrelevant next to the accuracy.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	histBuckets = 64 * histSub

	// HistRelError is the guaranteed relative quantile error: the upper
	// bound of any bucket is at most (1 + 1/histSub) times its lower bound,
	// so an estimate reported from a bucket's upper bound overshoots the
	// true sample by at most 12.5%.
	HistRelError = 1.0 / histSub
)

// Hist is a lock-free log-bucketed histogram of non-negative int64 samples
// (nanoseconds, by convention). The zero value is ready to use. Concurrent
// Observe calls never block each other or readers; Snapshot is a per-field
// consistent read, which is all an operational metric needs.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a sample to its bucket. Values below histSub land in the
// first buckets verbatim (exact, sub-nanosecond precision is meaningless);
// larger values are binned by octave and the histSubBits bits below the
// leading bit.
func bucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := (v >> (uint(octave) - histSubBits)) - histSub
	return (octave-histSubBits+1)*histSub + int(sub)
}

// bucketUpper is the inclusive upper bound of bucket i — the value Quantile
// reports for ranks landing in it, so estimates never undershoot the true
// sample by more than one sub-bucket's width. The last few buckets (octave
// 63, unreachable from int64 samples) clamp to MaxInt64.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	octave := i/histSub - 1 + histSubBits
	sub := int64(i%histSub) + histSub
	u := (sub + 1) << (uint(octave) - histSubBits)
	if u <= 0 { // overflowed past MaxInt64
		return math.MaxInt64
	}
	return u - 1
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a latency sample in nanoseconds.
func (h *Hist) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Snapshot captures the histogram for aggregation. Buckets is sparse —
// only non-empty buckets appear — so wire copies of mostly-empty histograms
// stay small.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64, 16)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// HistSnapshot is a point-in-time, mergeable copy of a Hist. It is the wire
// form too: followers publish it in /metrics and the router merges the
// fleet's snapshots bucket-wise, so fleet-wide quantiles are computed from
// the union of every replica's samples, not averaged per-replica quantiles
// (averaging quantiles is statistically meaningless).
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	// Buckets maps bucket index -> sample count, sparse. The index encodes
	// the log-linear layout (histSub sub-buckets per octave); Merge and
	// Quantile on both ends of the wire share this code.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Merge folds o into s bucket-wise. Merging is associative and commutative,
// so any fold order over a fleet's snapshots yields the same histogram.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(o.Buckets) > 0 && s.Buckets == nil {
		s.Buckets = make(map[int]int64, len(o.Buckets))
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the observed
// samples: the upper bound of the bucket holding the rank-ceil(q*count)
// sample, clamped to the observed maximum. The estimate is within
// HistRelError above some actually observed value. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n, ok := s.Buckets[i]
		if !ok {
			continue
		}
		seen += n
		if seen >= rank {
			u := bucketUpper(i)
			if u > s.Max {
				// The max is exact; no estimate should exceed it.
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// Mean is the exact average of the observed samples, 0 when empty.
func (s HistSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}
