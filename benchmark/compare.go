package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOutput is one run as read back from its standard output.
type runOutput struct {
	report reportLine
	final  finalLine
}

// readRun parses a run's output: the report line and the final line.
func readRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	var r runOutput
	var haveReport, haveFinal bool
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if _, ok := probe["workload"]; ok {
			haveReport = json.Unmarshal(line, &r.report) == nil
		} else if _, ok := probe["correct"]; ok {
			haveFinal = json.Unmarshal(line, &r.final) == nil
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !haveReport || !haveFinal {
		return r, fmt.Errorf("%s: not a benchmark run's output", path)
	}
	return r, nil
}

// row is one (workload, mode, metric) comparison.
type row struct {
	workload, mode, metric, unit string
	a, b                         [3]float64 // q1, median, q3
	change                       float64    // (median b − median a) / median a
	bound                        float64    // NaN for metrics without a bound
	verdict                      string
}

// compareRuns compares two sets of runs metric by metric. A metric with a
// bound in the spec is worse or better when the medians differ by more than
// the bound in that direction, and unresolved when either set's spread
// between quartiles exceeds the bound; a metric without a bound changes
// only when each set's median lies outside the other set's quartile range.
func compareRuns(s *spec, a, b []runOutput) []row {
	bounds, better := map[string]float64{}, map[string]string{}
	for _, m := range s.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
		better[m.Name] = m.Better
	}
	for _, m := range s.PerLayer {
		better[m.Name] = m.Better
	}
	type key struct{ workload, mode, metric string }
	va, vb := map[key][]float64{}, map[key][]float64{}
	units := map[key]string{}
	collect := func(runs []runOutput, into map[key][]float64) {
		for _, r := range runs {
			mode := "untraced"
			if r.report.Trace {
				mode = "traced"
			}
			for name, m := range r.report.Metrics {
				k := key{r.report.Workload, mode, name}
				into[k] = append(into[k], m.Value)
				units[k] = m.Unit
				if _, ok := better[name]; !ok && m.Better != "" {
					better[name] = m.Better
				}
			}
		}
	}
	collect(a, va)
	collect(b, vb)
	var rows []row
	for k, xa := range va {
		xb, ok := vb[k]
		if !ok {
			continue
		}
		r := row{workload: k.workload, mode: k.mode, metric: k.metric, unit: units[k], bound: math.NaN()}
		r.a[0], r.a[1], r.a[2] = quartiles(xa)
		r.b[0], r.b[1], r.b[2] = quartiles(xb)
		r.change = (r.b[1] - r.a[1]) / r.a[1]
		lowerBetter := better[k.metric] != "higher"
		bound, bounded := bounds[k.metric]
		if bounded && k.mode == "untraced" {
			r.bound = bound
			r.verdict = boundedVerdict(r, bound, lowerBetter)
		} else {
			r.verdict = overlapVerdict(r, lowerBetter)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		x, y := rows[i], rows[j]
		if x.workload != y.workload {
			return x.workload < y.workload
		}
		if x.mode != y.mode {
			return x.mode > y.mode // untraced first
		}
		return x.metric < y.metric
	})
	return rows
}

func boundedVerdict(r row, bound float64, lowerBetter bool) string {
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	switch {
	case math.IsNaN(r.change) || math.IsInf(r.change, 0):
		if r.a[1] == r.b[1] {
			return "same"
		}
		return "unresolved"
	case spread(r.a) > bound || spread(r.b) > bound:
		return "unresolved"
	}
	worse := r.change
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

func overlapVerdict(r row, lowerBetter bool) string {
	// Each set's median outside the other set's quartile range.
	up := r.b[1] > r.a[2] && r.a[1] < r.b[0]
	down := r.b[1] < r.a[0] && r.a[1] > r.b[2]
	switch {
	case up == down:
		return "same"
	case up == lowerBetter:
		return "worse"
	}
	return "better"
}

// compareCmd runs compare: -a and -b each take the run outputs that follow
// them. It reports whether any bounded metric got worse.
func compareCmd(args []string, out io.Writer) (bool, error) {
	specPath := "BENCHMARK.json"
	var files [2][]string
	set := -1
	for i := 0; i < len(args); i++ {
		switch strings.TrimLeft(args[i], "-") {
		case "a":
			set = 0
		case "b":
			set = 1
		case "spec":
			if i+1 >= len(args) {
				return false, fmt.Errorf("-spec needs a path")
			}
			i++
			specPath = args[i]
		default:
			if set < 0 {
				return false, fmt.Errorf("%q: name run outputs after -a or -b", args[i])
			}
			files[set] = append(files[set], args[i])
		}
	}
	if len(files[0]) == 0 || len(files[1]) == 0 {
		return false, fmt.Errorf("usage: compare [-spec BENCHMARK.json] -a <run outputs…> -b <run outputs…>")
	}
	s, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	var sets [2][]runOutput
	for i, fs := range files {
		for _, path := range fs {
			r, err := readRun(path)
			if err != nil {
				return false, err
			}
			sets[i] = append(sets[i], r)
		}
	}
	for i, name := range []string{"a", "b"} {
		for _, r := range sets[i] {
			if !r.final.Correct {
				fmt.Fprintf(out, "set %s: %s seed %d failed %d of %d operations\n",
					name, r.report.Workload, r.report.Seed, r.final.Failed, r.final.Attempted)
			}
		}
	}
	rows := compareRuns(s, sets[0], sets[1])
	return printRows(out, rows, sets), nil
}

// printRows prints the comparison table, then the tracing overhead of each
// set, and reports whether any bounded metric got worse.
func printRows(out io.Writer, rows []row, sets [2][]runOutput) bool {
	worse := false
	fmt.Fprintf(out, "%-14s %-8s %-28s %-33s %-33s %8s %6s  %s\n",
		"workload", "mode", "metric", "a: median [q1 q3]", "b: median [q1 q3]", "change", "bound", "verdict")
	for _, r := range rows {
		bound := "-"
		if !math.IsNaN(r.bound) {
			bound = fmt.Sprintf("%.2f", r.bound)
			worse = worse || r.verdict == "worse"
		}
		fmt.Fprintf(out, "%-14s %-8s %-28s %-33s %-33s %+7.1f%% %6s  %s\n",
			r.workload, r.mode, r.metric+" ("+r.unit+")", quart(r.a), quart(r.b), 100*r.change, bound, r.verdict)
	}
	for i, name := range []string{"a", "b"} {
		for _, w := range workloadNames() {
			var traced, untraced []float64
			for _, r := range sets[i] {
				if m, ok := r.report.Metrics["op_ms_p50"]; ok && r.report.Workload == w {
					if r.report.Trace {
						traced = append(traced, m.Value)
					} else {
						untraced = append(untraced, m.Value)
					}
				}
			}
			if len(traced) > 0 && len(untraced) > 0 {
				_, t, _ := quartiles(traced)
				_, u, _ := quartiles(untraced)
				fmt.Fprintf(out, "set %s %s: traced op_ms_p50 / untraced = %.3f\n", name, w, t/u)
			}
		}
	}
	return worse
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q[1], q[0], q[2])
}
