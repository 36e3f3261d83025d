// Command benchmark is DomainNet's repository benchmark: seeded workloads
// from offline homograph detection to a live leader + follower + router
// fleet, driven from outside the program through its public APIs, with
// correctness checks and an optional traced run that splits each operation
// into the modules it passed through.
//
//	benchmark run -workload <name> -seed <n> [-seconds <s>] [-trace 0|1|<file>]
//	benchmark compare [-spec BENCHMARK.json] -a <run outputs…> -b <run outputs…>
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"domainnet/internal/obs"
)

// buildDir is where run.sh builds, relative to the repository root; runs
// keep their scratch files and spans there too.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark run|compare [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "compare":
		var worse bool
		worse, err = compareCmd(os.Args[2:], os.Stdout)
		if err == nil && worse {
			os.Exit(1)
		}
	default:
		err = fmt.Errorf("unknown subcommand %q (want run or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the run sets its workload up; setup_s is
	// their median, and the last one is measured.
	setups int
	// rateScale scales the open-loop rates; the smoke test runs lighter.
	rateScale float64
	// commitDelay is added to the leader's OnCommit hook: the attribution
	// self-test's injected slowdown. Zero in every real run.
	commitDelay time.Duration
	// work is the run's scratch directory.
	work string
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	cfg := config{setups: 3, rateScale: 1}
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the run's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "measured duration")
	traceArg := fs.String("trace", "0", `"1" records spans and reports per-layer metrics (spans go to `+buildDir+`/spans-<workload>-<seed>.jsonl); any other value but "0" names the spans file`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	spans := ""
	switch *traceArg {
	case "0", "":
	case "1":
		spans = spansPath(buildDir, cfg.workload, cfg.seed)
	default:
		spans = *traceArg
	}
	cfg.trace = spans != ""
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	var err error
	if cfg.work, err = os.MkdirTemp(buildDir, "work-"+cfg.workload+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	res, tr, err := execute(cfg)
	if err != nil {
		return err
	}
	if spans != "" {
		if err := tr.writeJSONL(spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", e)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res.report(cfg)); err != nil {
		return err
	}
	return enc.Encode(res.final(cfg.trace))
}

// metric is one named measurement as printed.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
}

// MarshalJSON writes values JSON cannot hold as numbers: an infinity as the
// largest finite number of its sign (a run whose median latency is +Inf
// because most operations failed still prints a well-formed result), and
// NaN, a metric with no samples, as 0.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	switch {
	case math.IsInf(m.Value, 0):
		m.Value = math.Copysign(math.MaxFloat64, m.Value)
	case math.IsNaN(m.Value):
		m.Value = 0
	}
	return json.Marshal(plain(m))
}

// result is everything one run measured.
type result struct {
	attempted, failed int64
	errors            []string
	// endToEnd, perLayer and detail hold the BENCHMARK.json end-to-end
	// metrics, the BENCHMARK.json per-layer metrics (traced runs only), and
	// every workload-specific metric, each with its unit.
	endToEnd, perLayer, detail map[string]metric
	samples                    map[string]int
}

// finalLine is the last line of a run's standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) final(traced bool) finalLine {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	out := make(map[string]metric, len(ms))
	for k, v := range ms {
		out[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return finalLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}
}

// reportLine precedes the final line: the run's identity, the machine, the
// sample counts and every metric, workload-specific ones included.
type reportLine struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Machine  machine           `json:"machine"`
	Samples  map[string]int    `json:"samples"`
	Metrics  map[string]metric `json:"metrics"`
}

func (r *result) report(cfg config) reportLine {
	all := map[string]metric{}
	for _, ms := range []map[string]metric{r.detail, r.endToEnd, r.perLayer} {
		for k, v := range ms {
			all[k] = v
		}
	}
	return reportLine{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Machine: readMachine(), Samples: r.samples, Metrics: all}
}

// meter collects one run's measurements. Workloads record operations
// (attempted, and failed when their error is non-nil) into named series of
// latencies in ms, where a failed operation reads +Inf.
type meter struct {
	tr        *tracer
	mu        sync.Mutex
	series    map[string][]float64
	opTraced  []bool // parallel to series["op"]
	attempted int64
	failed    int64
	errors    []string
	detail    map[string]metric
}

func newMeter(tr *tracer) *meter {
	return &meter{tr: tr, series: map[string][]float64{}, detail: map[string]metric{}}
}

// traced reports whether the i-th scheduled operation is traced. A traced
// run traces every other operation; the untraced ones, measured in the same
// conditions, give trace.overhead.
func (m *meter) traced(i int) bool { return m.tr != nil && i%2 == 0 }

// running reports whether a closed loop should start its i-th operation:
// until the deadline, and in a traced run at least two operations, so both
// sides of trace.overhead are measured.
func (m *meter) running(i int, deadline time.Time) bool {
	return time.Now().Before(deadline) || (m.tr != nil && i < 2)
}

// traceID returns a fresh trace ID for a traced operation, else 0.
func (m *meter) traceID(i int) uint64 {
	if !m.traced(i) {
		return 0
	}
	return m.tr.newID()
}

// op records one attempted operation of a series; traced says whether the
// operation carried spans.
func (m *meter) op(series string, traced bool, d time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	x := float64(d) / 1e6
	if err != nil {
		m.failLocked(err)
		x = math.Inf(1)
	}
	m.series[series] = append(m.series[series], x)
	if series == "op" {
		m.opTraced = append(m.opTraced, traced)
	}
}

// observe records a derived latency that is not an operation of its own.
func (m *meter) observe(series string, d time.Duration) {
	m.mu.Lock()
	m.series[series] = append(m.series[series], float64(d)/1e6)
	m.mu.Unlock()
}

// fail records a failed check that belongs to no single operation.
func (m *meter) fail(err error) {
	m.mu.Lock()
	m.failLocked(err)
	m.mu.Unlock()
}

func (m *meter) failLocked(err error) {
	m.failed++
	if len(m.errors) < 8 {
		m.errors = append(m.errors, err.Error())
	}
}

func (m *meter) samples(series string) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.series[series]...)
}

func (m *meter) set(name string, v float64, unit, better string) {
	m.mu.Lock()
	m.detail[name] = metric{Value: v, Unit: unit, Better: better}
	m.mu.Unlock()
}

// setQuantile sets a percentile of latencies in ms, converted to unit (ms or
// us). An empty sample, such as span durations in an untraced run, sets
// nothing.
func (m *meter) setQuantile(name string, xs []float64, q float64, unit string) {
	if len(xs) == 0 {
		return
	}
	scale := map[string]float64{"ms": 1, "us": 1e3}[unit]
	m.set(name, quantile(xs, q)*scale, unit, "lower")
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure drives the workload until the deadline.
	measure(m *meter, deadline time.Time)
	// finish checks the outputs once measuring is over and records the
	// workload's own metrics.
	finish(m *meter)
	close()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute sets the workload up cfg.setups times, measures the last set-up
// for cfg.seconds, checks it, and assembles the result.
func execute(cfg config) (*result, *tracer, error) {
	setup := workloads[cfg.workload]
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		setups []float64
		inst   instance
		heap   *heapSampler
	)
	for i := 0; ; i++ {
		runtime.GC() // start each set-up from the same heap, not the last one's garbage
		heap = startHeapSampler()
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup%d", i))
		start := time.Now()
		in, err := setup(cfg, dir, tr)
		if err != nil {
			heap.stop()
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i+1 >= cfg.setups {
			inst = in
			break
		}
		heap.stop()
		in.close()
		os.RemoveAll(dir)
	}
	defer inst.close()

	m := newMeter(tr)
	cpu0, rt0 := cpuTime(), obs.ReadRuntime()
	start := time.Now()
	inst.measure(m, start.Add(time.Duration(cfg.seconds*float64(time.Second))))
	elapsed := time.Since(start)
	cpu1, rt1 := cpuTime(), obs.ReadRuntime()
	peakObjects, peakLive := heap.stop()
	inst.finish(m)

	ops := float64(max(m.attempted, 1))
	res := &result{attempted: m.attempted, failed: m.failed, errors: m.errors, detail: m.detail, samples: map[string]int{}}
	for s, xs := range m.series {
		res.samples[s] = len(xs)
	}
	res.samples["setup"] = len(setups)
	op := m.samples("op")
	_, setupMed, _ := quartiles(setups)
	res.endToEnd = map[string]metric{
		"setup_s":           {setupMed, "s", "lower"},
		"op_ms_p50":         {quantile(op, 0.50), "ms", "lower"},
		"peak_live_heap_mb": {float64(peakLive) / (1 << 20), "MiB", "lower"},
	}
	proc := map[string]metric{
		"proc.cpu_ms_per_op":   {(cpu1 - cpu0).Seconds() * 1e3 / ops, "ms", "lower"},
		"proc.alloc_kb_per_op": {float64(rt1.TotalAllocBytes-rt0.TotalAllocBytes) / 1024 / ops, "KiB", "lower"},
		"proc.gc_cycles":       {float64(rt1.GCCycles - rt0.GCCycles), "count", "lower"},
	}
	res.detail["op_ms_p90"] = metric{quantile(op, 0.90), "ms", "lower"}
	res.detail["ops_per_s"] = metric{float64(len(op)) / elapsed.Seconds(), "1/s", "higher"}
	res.detail["heap_objects_mb_peak"] = metric{float64(peakObjects) / (1 << 20), "MiB", "lower"}
	res.detail["proc.gc_pause_ms_p99"] = metric{float64(rt1.GCPauseP99NS) / 1e6, "ms", "lower"}
	for k, v := range proc {
		res.detail[k] = v
	}
	if tr != nil {
		res.perLayer = layerMetrics(tr, m)
		for k, v := range proc {
			res.perLayer[k] = v
		}
	}
	for _, ms := range []map[string]metric{res.endToEnd, res.perLayer} {
		for name, v := range ms {
			if math.IsNaN(v.Value) {
				// Nothing was measured: the run cannot stand for the metric.
				res.failed++
				res.errors = append(res.errors, "no samples for "+name)
				v.Value = 0
				ms[name] = v
			}
		}
	}
	return res, tr, nil
}

// layers are the modules a span can be attributed to, in the order of the
// per-layer table.
var layers = []string{"loadgen", "net", "router", "serve", "wal", "repl", "persist", "lake", "bipartite", "centrality", "rank"}

// layerMetrics attributes the traced operations' time to the layers, and
// compares traced with untraced operations of the same run.
func layerMetrics(tr *tracer, m *meter) map[string]metric {
	ts := tr.collect()
	shares, none, _ := ts.attribution("op")
	out := map[string]metric{}
	for _, l := range layers {
		out[l+".share"] = metric{shares[l], "share", "lower"}
	}
	out["trace.unattributed_share"] = metric{none, "share", "lower"}
	var traced, untraced []float64
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, x := range m.series["op"] {
		if m.opTraced[i] {
			traced = append(traced, x)
		} else {
			untraced = append(untraced, x)
		}
	}
	out["trace.overhead"] = metric{quantile(traced, 0.5) / quantile(untraced, 0.5), "ratio", "lower"}
	return out
}

// heapSampler records, every 100 ms, the peak of the heap's object bytes
// (live objects plus garbage not yet swept, which moves with the GC's
// timing) and the peak of the live heap the last GC marked (the footprint).
type heapSampler struct {
	stopc chan struct{}
	done  chan [2]uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan [2]uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
		var peak [2]uint64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			for i := range peak {
				peak[i] = max(peak[i], s[i].Value.Uint64())
			}
			select {
			case <-t.C:
			case <-h.stopc:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peaks of object bytes and live bytes.
func (h *heapSampler) stop() (objects, live uint64) {
	close(h.stopc)
	p := <-h.done
	return p[0], p[1]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machine identifies where a run was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func readMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Revision: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			m.Revision = rev
			if vcs["vcs.modified"] == "true" {
				m.Revision += "+modified"
			}
		}
	}
	return m
}
