package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the content type of the text exposition format,
// version 0.0.4 — what every Prometheus-compatible scraper accepts.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter renders metrics in the Prometheus text exposition format with
// no client library: `# TYPE` headers emitted once per family, label values
// escaped, histograms rendered as cumulative le-buckets in seconds. Families
// must be emitted contiguously (all series of one name together), which the
// call sites do naturally by looping per family.
type PromWriter struct {
	b     strings.Builder
	typed map[string]bool
}

// header emits the TYPE line once per family.
func (p *PromWriter) header(name, typ string) {
	if p.typed[name] {
		return
	}
	if p.typed == nil {
		p.typed = make(map[string]bool)
	}
	p.typed[name] = true
	fmt.Fprintf(&p.b, "# TYPE %s %s\n", name, typ)
}

// series writes one sample line. labels are alternating key, value pairs —
// already in a deterministic order at every call site.
func (p *PromWriter) series(name, suffix string, labels []string, value string) {
	p.b.WriteString(name)
	p.b.WriteString(suffix)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, "%s=%q", labels[i], promEscape(labels[i+1]))
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(value)
	p.b.WriteByte('\n')
}

func promEscape(v string) string {
	// %q handles quotes and backslashes; strip newlines explicitly so a
	// hostile label can't split a sample line.
	return strings.ReplaceAll(strings.ReplaceAll(v, "\n", " "), "\r", " ")
}

// Counter emits one counter sample. labels alternate key, value.
func (p *PromWriter) Counter(name string, value int64, labels ...string) {
	p.header(name, "counter")
	p.series(name, "", labels, strconv.FormatInt(value, 10))
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name string, value float64, labels ...string) {
	p.header(name, "gauge")
	p.series(name, "", labels, strconv.FormatFloat(value, 'g', -1, 64))
}

// Histogram emits one histogram series from a latency snapshot, converting
// nanosecond buckets to the seconds Prometheus convention. Only non-empty
// buckets are emitted (cumulatively, upper bounds strictly increasing),
// plus the mandatory +Inf bucket, _sum and _count.
func (p *PromWriter) Histogram(name string, h HistSnapshot, labels ...string) {
	p.header(name, "histogram")
	idx := make([]int, 0, len(h.Buckets))
	for i := range h.Buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var cum int64
	bucketLabels := make([]string, 0, len(labels)+2)
	for _, i := range idx {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(float64(bucketUpper(i))/1e9, 'g', -1, 64)
		bucketLabels = append(bucketLabels[:0], labels...)
		bucketLabels = append(bucketLabels, "le", le)
		p.series(name, "_bucket", bucketLabels, strconv.FormatInt(cum, 10))
	}
	bucketLabels = append(bucketLabels[:0], labels...)
	bucketLabels = append(bucketLabels, "le", "+Inf")
	p.series(name, "_bucket", bucketLabels, strconv.FormatInt(h.Count, 10))
	p.series(name, "_sum", labels, strconv.FormatFloat(float64(h.Sum)/1e9, 'g', -1, 64))
	p.series(name, "_count", labels, strconv.FormatInt(h.Count, 10))
}

// EndpointFamilies renders one endpoint map as the four per-endpoint
// families under prefix — requests, errors, 304s and the latency histogram —
// each family contiguous, endpoints in sorted-name order so scrapes are
// diffable.
func (p *PromWriter) EndpointFamilies(prefix string, m map[string]EndpointMetrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.Counter(prefix+"_requests_total", m[name].Count, "endpoint", name)
	}
	for _, name := range names {
		p.Counter(prefix+"_request_errors_total", m[name].Errors, "endpoint", name)
	}
	for _, name := range names {
		p.Counter(prefix+"_not_modified_total", m[name].NotModified, "endpoint", name)
	}
	for _, name := range names {
		p.Histogram(prefix+"_request_seconds", m[name].Hist, "endpoint", name)
	}
}

// Bytes returns the rendered exposition.
func (p *PromWriter) Bytes() []byte { return []byte(p.b.String()) }
