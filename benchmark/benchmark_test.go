package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
)

// specPath is BENCHMARK.json, at the repository root.
const specPath = "../BENCHMARK.json"

// TestSmoke runs every workload of BENCHMARK.json for one second at a
// quarter of its rates, traced, and checks that the run is correct and
// reports every metric the spec names, with the spec's unit.
func TestSmoke(t *testing.T) {
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !slices.Equal(got, sortedCopy(names)) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", names, got)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 1, seconds: 1, trace: true, setups: 1, rateScale: 0.25, work: t.TempDir()}
			res, tr, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.errors)
			}
			checkMetrics(t, "end_to_end", s.EndToEnd, res.final(false).Metrics, true)
			checkMetrics(t, "per_layer", s.PerLayer, res.final(true).Metrics, false)
			if len(tr.collect().roots) == 0 {
				t.Error("a traced run recorded no operation")
			}
		})
	}
}

// checkMetrics checks that got holds exactly the spec's metrics, each with
// the spec's unit and a finite value, positive where positive says so.
func checkMetrics(t *testing.T, list string, want []specMetric, got map[string]metric, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: run printed %d metrics, spec names %d", list, len(got), len(want))
	}
	for _, sm := range want {
		m, ok := got[sm.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", list, sm.Name)
		case m.Unit != sm.Unit:
			t.Errorf("%s: %s in %q, spec says %q", list, sm.Name, m.Unit, sm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0):
			t.Errorf("%s: %s = %v", list, sm.Name, m.Value)
		}
	}
}

func sortedCopy(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// TestSeedDeterminism checks that a seed fixes every generated input — the
// lake's CSVs, the open-loop schedule and the planned writes — and that
// another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	type inputs struct {
		csv      [][]byte
		schedule []op
		writes   []writeReq
		fresh    []writeReq
	}
	gen := func(seed int64) inputs {
		sb := datagen.NewSB(seed)
		var in inputs
		for _, tb := range sb.Lake.Tables() {
			in.csv = append(in.csv, csvBytes(tb))
		}
		vocab := shuffled(seed, bipartite.FromLake(sb.Lake, bipartite.Options{}).Values())
		in.schedule = schedule(seed, 2*time.Second, 500, 20, vocab)
		in.writes = writePlan(seed, 40, vocab)
		for i := 0; i < 8; i++ {
			w, _ := freshWrite(seed, i, vocab)
			in.fresh = append(in.fresh, w)
		}
		return in
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed generated two different sets of inputs")
	}
	for name, differ := range map[string]bool{
		"lake CSVs":     !reflect.DeepEqual(a.csv, c.csv),
		"schedule":      !reflect.DeepEqual(a.schedule, c.schedule),
		"write plan":    !reflect.DeepEqual(a.writes, c.writes),
		"fresh tables":  !bytes.Equal(a.fresh[0].csv, c.fresh[0].csv),
		"connected row": !bytes.Equal(a.fresh[6].csv, c.fresh[6].csv),
	} {
		if !differ {
			t.Errorf("seeds 1 and 2 generated the same %s", name)
		}
	}
}

// TestAttributionSelfTest injects 2 ms into the leader's OnCommit hook —
// the program is unchanged; the harness wraps the hook — and checks that
// compare pins the slowdown on the write acknowledgement and on the wal
// layer, and that on a workload that never writes no bounded metric moves.
// Opt in with DOMAINNET_BENCH_SELFTEST=1; it takes a few minutes.
func TestAttributionSelfTest(t *testing.T) {
	if os.Getenv("DOMAINNET_BENCH_SELFTEST") != "1" {
		t.Skip("set DOMAINNET_BENCH_SELFTEST=1 to run the attribution self-test")
	}
	s, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	for _, tc := range []struct {
		workload string
		worse    []string // mode/metric rows compare must call worse
	}{
		{"write_fleet", []string{"untraced/write_ack_p50_ms", "traced/wal.commit_ms_p50"}},
		{"read_fleet", nil},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			var sets [2][]runOutput
			// Alternate the two sides, so a drift in the machine's speed
			// lands on both.
			for i := 0; i < runs; i++ {
				for side, delay := range []time.Duration{0, 2 * time.Millisecond} {
					for _, traced := range []bool{false, true} {
						cfg := config{workload: tc.workload, seed: int64(1 + i), seconds: 4, trace: traced,
							setups: 1, rateScale: 1, commitDelay: delay, work: t.TempDir()}
						res, _, err := execute(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if res.failed != 0 {
							t.Fatalf("%+v: %d failed: %v", cfg, res.failed, res.errors)
						}
						sets[side] = append(sets[side], runOutput{report: res.report(cfg), final: res.final(traced)})
					}
				}
			}
			verdicts := map[string]string{}
			for _, r := range compareRuns(s, sets[0], sets[1]) {
				row := r.mode + "/" + r.metric
				verdicts[row] = r.verdict
				t.Logf("%-36s %s → %s  %s", row, quart(r.a), quart(r.b), r.verdict)
				if !math.IsNaN(r.bound) && tc.worse == nil && (r.verdict == "worse" || r.verdict == "better") {
					t.Errorf("%s is %s on a workload the slowdown never touches", row, r.verdict)
				}
			}
			for _, row := range tc.worse {
				if verdicts[row] != "worse" {
					t.Errorf("%s is %q, want worse", row, verdicts[row])
				}
			}
		})
	}
}
