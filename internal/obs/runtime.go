package obs

import (
	"runtime/metrics"
)

// RuntimeStats is the process-health section of /metrics: scheduler, heap,
// and GC pause telemetry read from runtime/metrics (no stop-the-world, no
// ReadMemStats). Its prom tags are relative to its section's prefix.
type RuntimeStats struct {
	Goroutines      int64 `json:"goroutines" prom:"goroutines"`
	HeapBytes       int64 `json:"heap_bytes" prom:"heap_bytes"`                    // live heap objects
	HeapGoalBytes   int64 `json:"heap_goal_bytes" prom:"heap_goal_bytes"`          // GC pacer target
	GCCycles        int64 `json:"gc_cycles" prom:"gc_cycles"`                      // completed GC cycles
	GCPauseCount    int64 `json:"gc_pause_count" prom:"gc_pauses_total"`           // stop-the-world pauses
	GCPauseP50NS    int64 `json:"gc_pause_p50_ns" prom:"gc_pause_p50_seconds"`     // median pause
	GCPauseP99NS    int64 `json:"gc_pause_p99_ns" prom:"gc_pause_p99_seconds"`     // tail pause
	GCPauseTotalNS  int64 `json:"gc_pause_total_ns" prom:"gc_pause_seconds_total"` // estimated total pause time
	TotalAllocBytes int64 `json:"total_alloc_bytes" prom:"alloc_bytes_total"`      // cumulative heap allocations
}

// runtimeSamples names the runtime/metrics series ReadRuntime reads. The
// slice is cloned per read — metrics.Read writes into it.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/gc/heap/allocs:bytes",
}

// ReadRuntime samples the runtime telemetry. Unsupported series (an older
// runtime) read as zero rather than failing, so the metrics surface
// degrades instead of breaking.
func ReadRuntime() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var out RuntimeStats
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			out.Goroutines = uintValue(s)
		case "/memory/classes/heap/objects:bytes":
			out.HeapBytes = uintValue(s)
		case "/gc/heap/goal:bytes":
			out.HeapGoalBytes = uintValue(s)
		case "/gc/cycles/total:gc-cycles":
			out.GCCycles = uintValue(s)
		case "/gc/heap/allocs:bytes":
			out.TotalAllocBytes = uintValue(s)
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				out.GCPauseCount = histCount(h)
				out.GCPauseP50NS = histQuantileNS(h, 0.50)
				out.GCPauseP99NS = histQuantileNS(h, 0.99)
				out.GCPauseTotalNS = histTotalNS(h)
			}
		}
	}
	return out
}

func uintValue(s metrics.Sample) int64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s.Value.Uint64())
}

func histCount(h *metrics.Float64Histogram) int64 {
	var n int64
	for _, c := range h.Counts {
		n += int64(c)
	}
	return n
}

// histQuantileNS estimates a quantile of a runtime Float64Histogram
// (seconds), reported in nanoseconds. The runtime's bucket edges can be
// ±Inf; estimates use the finite edge of the chosen bucket.
func histQuantileNS(h *metrics.Float64Histogram, q float64) int64 {
	total := histCount(h)
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += int64(c)
		if seen >= rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]); report the upper
			// edge, falling back to the lower when the upper is +Inf.
			edge := h.Buckets[i+1]
			if isInf(edge) {
				edge = h.Buckets[i]
			}
			if isInf(edge) || edge < 0 {
				return 0
			}
			return int64(edge * 1e9)
		}
	}
	return 0
}

// histTotalNS estimates the histogram's total (sum of midpoints weighted by
// counts) in nanoseconds — the runtime does not publish an exact pause sum.
func histTotalNS(h *metrics.Float64Histogram) int64 {
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if isInf(lo) {
			lo = 0
		}
		if isInf(hi) {
			hi = lo
		}
		total += float64(c) * (lo + hi) / 2
	}
	return int64(total * 1e9)
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 || f != f }
