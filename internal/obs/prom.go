package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// PromContentType is the content type of the text exposition format,
// version 0.0.4 — what every Prometheus-compatible scraper accepts.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteMetrics answers a metrics request from v, a view struct whose fields
// declare every series it carries. JSON is encoding/json on v; ?format=prom
// renders the Prometheus text exposition from the
// `prom:"name[,label=value...]"` tag on each field:
//   - a numeric or bool field is one sample (a bool reads 0 or 1): a counter
//     when its name ends in _total, else a gauge;
//   - a name ending in _seconds or _seconds_total holds nanoseconds and
//     renders in seconds, histogram buckets included;
//   - a HistSnapshot field renders as a histogram, and a
//     map[string]EndpointMetrics field as the per-endpoint families;
//   - on an endpoint map and on a struct, pointer or interface field (nil
//     renders nothing), the tag is a name prefix;
//   - prom:"-" marks a JSON-only field.
//
// Fields of one family (one name, other labels) must be adjacent. A field
// without a prom tag, or a leaf of another kind, is a declaration error and
// panics.
func WriteMetrics(w http.ResponseWriter, r *http.Request, v any) {
	if r.URL.Query().Get("format") != "prom" {
		writeJSON(w, v)
		return
	}
	var p promWriter
	p.walk("", reflect.ValueOf(v))
	w.Header().Set("Content-Type", PromContentType)
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(p.b.String())) //nolint:errcheck // the response is already committed
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// promWriter renders the Prometheus text exposition format with no client
// library: a `# TYPE` header opening each family, label values escaped,
// histograms rendered as cumulative le-buckets.
type promWriter struct {
	b      strings.Builder
	family string // the family the last header opened
}

// walk renders every tagged field of the struct behind v, prefixing each
// name with prefix.
func (p *promWriter) walk(prefix string, v reflect.Value) {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	t := v.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("prom")
		if !ok {
			panic(fmt.Sprintf("obs: %s.%s has no prom tag", t, f.Name))
		}
		if tag == "-" {
			continue
		}
		parts := strings.Split(tag, ",")
		name := prefix + parts[0]
		var labels []string
		for _, l := range parts[1:] {
			k, val, _ := strings.Cut(l, "=")
			labels = append(labels, k, val)
		}
		fv := v.Field(i)
		switch x := fv.Interface().(type) {
		case HistSnapshot:
			p.histogram(name, x, labels)
		case map[string]EndpointMetrics:
			p.endpointFamilies(name, x)
		default:
			switch fv.Kind() {
			case reflect.Struct, reflect.Pointer, reflect.Interface:
				p.walk(name, fv)
			default:
				p.sample(name, fv, labels)
			}
		}
	}
}

// inNanos reports whether the series name declares a nanosecond field
// rendered in seconds.
func inNanos(name string) bool {
	return strings.HasSuffix(strings.TrimSuffix(name, "_total"), "_seconds")
}

// sample emits one sample of a numeric or bool value: a counter when its
// name ends in _total, else a gauge.
func (p *promWriter) sample(name string, v reflect.Value, labels []string) {
	var s string
	switch {
	case v.Kind() == reflect.Bool:
		s = "0"
		if v.Bool() {
			s = "1"
		}
	case v.CanInt() && inNanos(name):
		s = strconv.FormatFloat(float64(v.Int())/1e9, 'g', -1, 64)
	case v.CanInt():
		s = strconv.FormatInt(v.Int(), 10)
	case v.CanUint():
		s = strconv.FormatUint(v.Uint(), 10)
	case v.CanFloat():
		s = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	default:
		panic(fmt.Sprintf("obs: %s is a %s, not a numeric or bool leaf", name, v.Type()))
	}
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	p.header(name, typ)
	p.series(name, "", labels, s)
}

// header opens a family with its TYPE line, unless it is already open.
func (p *promWriter) header(name, typ string) {
	if name != p.family {
		p.family = name
		fmt.Fprintf(&p.b, "# TYPE %s %s\n", name, typ)
	}
}

// series writes one sample line. labels are alternating key, value pairs —
// already in a deterministic order at every call site.
func (p *promWriter) series(name, suffix string, labels []string, value string) {
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

// histogram emits one histogram series from a snapshot, in seconds when the
// name says the samples are nanoseconds. Only non-empty buckets are emitted
// (cumulatively, upper bounds strictly increasing), plus the mandatory +Inf
// bucket, _sum and _count.
func (p *promWriter) histogram(name string, h HistSnapshot, labels []string) {
	p.header(name, "histogram")
	unit := 1.0
	if inNanos(name) {
		unit = 1e9
	}
	labels = labels[:len(labels):len(labels)] // each bucket appends its own le
	var cum int64
	for _, i := range slices.Sorted(maps.Keys(h.Buckets)) {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(float64(bucketUpper(i))/unit, 'g', -1, 64)
		p.series(name, "_bucket", append(labels, "le", le), strconv.FormatInt(cum, 10))
	}
	p.series(name, "_bucket", append(labels, "le", "+Inf"), strconv.FormatInt(h.Count, 10))
	p.series(name, "_sum", labels, strconv.FormatFloat(float64(h.Sum)/unit, 'g', -1, 64))
	p.series(name, "_count", labels, strconv.FormatInt(h.Count, 10))
}

// endpointFamilies renders one endpoint map as the four per-endpoint
// families under prefix — requests, errors, 304s and the latency histogram —
// each family contiguous, endpoints in sorted-name order so scrapes are
// diffable.
func (p *promWriter) endpointFamilies(prefix string, m map[string]EndpointMetrics) {
	names := slices.Sorted(maps.Keys(m))
	label := func(name string) []string { return []string{"endpoint", name} }
	for _, name := range names {
		p.sample(prefix+"requests_total", reflect.ValueOf(m[name].Count), label(name))
	}
	for _, name := range names {
		p.sample(prefix+"request_errors_total", reflect.ValueOf(m[name].Errors), label(name))
	}
	for _, name := range names {
		p.sample(prefix+"not_modified_total", reflect.ValueOf(m[name].NotModified), label(name))
	}
	for _, name := range names {
		p.histogram(prefix+"request_seconds", m[name].Hist, label(name))
	}
}
