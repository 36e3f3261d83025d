package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"domainnet/internal/domainnet"
	"domainnet/internal/obs"
	"domainnet/internal/router"
)

// TestMain doubles as the daemon entry point for the process-level tests:
// when DOMAINNETD_ARGS is set, the test binary re-execs into main() with
// those arguments, so the integration tests below exercise the real daemon
// — flag parsing, WAL recovery, replication, signal handling — without a
// separate build step.
func TestMain(m *testing.M) {
	if args := os.Getenv("DOMAINNETD_ARGS"); args != "" {
		os.Args = append([]string{"domainnetd"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// --- flag validation (fail fast on contradictory flags) ---

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"checkpoint with snapshot", []string{"-snapshot", "x.snap", "-checkpoint-every", "5"}, true},
		{"checkpoint without snapshot", []string{"-checkpoint-every", "5"}, false},
		{"negative checkpoint", []string{"-snapshot", "x.snap", "-checkpoint-every", "-1"}, false},
		{"unknown measure", []string{"-measure", "pagerank"}, false},
		{"wal standalone", []string{"-wal", "waldir"}, true},
		{"wal with snapshot and dir", []string{"-wal", "waldir", "-snapshot", "x.snap", "-dir", "csvs"}, true},
		{"wal with dir but no snapshot", []string{"-wal", "waldir", "-dir", "csvs"}, false},
		{"follow standalone", []string{"-follow", "http://leader:8080"}, true},
		{"follow with keep-singletons", []string{"-follow", "http://leader:8080", "-keep-singletons"}, false},
		{"follow with dir", []string{"-follow", "http://leader:8080", "-dir", "csvs"}, false},
		{"follow with snapshot", []string{"-follow", "http://leader:8080", "-snapshot", "x.snap"}, false},
		{"follow with wal", []string{"-follow", "http://leader:8080", "-wal", "waldir"}, false},
		{"warm measures", []string{"-warm-measures", "bc,lcc"}, true},
		{"warm measures with follow", []string{"-follow", "http://leader:8080", "-warm-measures", "bc"}, true},
		{"warm measures unknown", []string{"-warm-measures", "bc,pagerank"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if tc.ok && err != nil {
				t.Fatalf("parseFlags(%v) = %v, want success", tc.args, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("parseFlags(%v) succeeded, want an error", tc.args)
			}
		})
	}
}

func TestParseFlagsMeasuresAreRegistered(t *testing.T) {
	// Every spelling the error messages advertise must be accepted by both
	// measure flags, or a documented flag value would fail at startup.
	for _, name := range domainnet.MeasureNames() {
		if _, err := parseFlags([]string{"-measure", name, "-warm-measures", name}); err != nil {
			t.Errorf("parseFlags(-measure %s -warm-measures %s) = %v, want success", name, name, err)
		}
	}
}

func TestParseWarmMeasures(t *testing.T) {
	c, err := parseFlags([]string{"-warm-measures", " bc, lcc "})
	if err != nil {
		t.Fatal(err)
	}
	// Spellings are trimmed and order is kept. Duplicates, and the default
	// measure, are dropped by the server (TestWarmSetDedupes in serve).
	want := []domainnet.Measure{domainnet.BetweennessApprox, domainnet.LCC}
	if len(c.warmMeasures) != len(want) {
		t.Fatalf("warmMeasures = %v, want %v", c.warmMeasures, want)
	}
	for i := range want {
		if c.warmMeasures[i] != want[i] {
			t.Fatalf("warmMeasures[%d] = %v, want %v", i, c.warmMeasures[i], want[i])
		}
	}
	if c, err = parseFlags(nil); err != nil || c.warmMeasures != nil {
		t.Fatalf("default warmMeasures = %v (err %v), want none", c.warmMeasures, err)
	}
}

// --- process-level integration ---

// daemon is one live domainnetd child process.
type daemon struct {
	cmd      *exec.Cmd
	url      string
	debugURL string // pprof listener, when started with -debug-addr
}

// startDaemon launches the test binary as a daemon and waits for it to log
// its bound address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "DOMAINNETD_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})

	addr := make(chan string, 1)
	debugAddr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("[daemon %d] %s", cmd.Process.Pid, line)
			// The pprof listener logs first and also says "listening on";
			// match it before the main-address line can swallow it.
			if _, a, ok := strings.Cut(line, "debug (pprof) listening on "); ok {
				select {
				case debugAddr <- strings.TrimSpace(a):
				default:
				}
				continue
			}
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not log its listening address")
	}
	// The debug line, when enabled, precedes the main one, so it has already
	// been scanned by now; a non-blocking read suffices.
	select {
	case a := <-debugAddr:
		d.debugURL = "http://" + a
	default:
	}
	return d
}

// kill9 crashes the daemon without any chance to checkpoint.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// shutdown stops the daemon gracefully (SIGTERM → drain → checkpoint).
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(d.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", path, resp.StatusCode, b)
	}
	return string(b)
}

// post uploads one CSV table and fails the test unless the daemon
// acknowledged it (an acknowledged mutation is the unit of durability).
func (d *daemon) post(t *testing.T, name, csv string) {
	t.Helper()
	resp, err := http.Post(d.url+"/tables/"+name, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /tables/%s = %d (%s)", name, resp.StatusCode, b)
	}
}

// version reads the daemon's current snapshot version from /stats.
func (d *daemon) version(t *testing.T) float64 {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(d.get(t, "/stats")), &m); err != nil {
		t.Fatal(err)
	}
	v, ok := m["version"].(float64)
	if !ok {
		t.Fatalf("stats carry no version: %v", m)
	}
	return v
}

// publishedOnce checks that the daemon has published once and cancelled no
// warm, as a restart does: its log tail is applied before the first publish.
func (d *daemon) publishedOnce(t *testing.T) {
	t.Helper()
	var m struct {
		Publishes int64
		Warm      struct{ Cancelled int64 }
	}
	if err := json.Unmarshal([]byte(d.get(t, "/metrics")), &m); err != nil {
		t.Fatal(err)
	}
	if m.Publishes != 1 || m.Warm.Cancelled != 0 {
		t.Errorf("after a restart: %d publishes and %d cancelled warms, want 1 and 0", m.Publishes, m.Warm.Cancelled)
	}
}

// waitVersion polls until the daemon serves the wanted version, tolerating
// 503s while a follower bootstraps.
func (d *daemon) waitVersion(t *testing.T, want float64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/stats")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var m map[string]any
				if json.Unmarshal(b, &m) == nil {
					if v, ok := m["version"].(float64); ok && v == want {
						return
					}
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never reached version %v within %v", want, timeout)
}

// csvTable builds a small CSV whose values overlap across tables, so the
// homograph ranking is non-trivial.
func csvTable(i int) string {
	return fmt.Sprintf("animal,city\njaguar,memphis\npuma,lima\nbeast%d,town%d\n", i, i)
}

// TestProcessCrashRecovery is the acceptance scenario: kill -9 a leader
// mid-burst-stream and restart it; the recovered lake version and served
// rankings must be bit-identical to the last acknowledged pre-crash state.
func TestProcessCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	flags := []string{
		"-wal", filepath.Join(dir, "wal"),
		"-snapshot", filepath.Join(dir, "lake.snapshot"),
		"-checkpoint-every", "3", // a checkpoint lands mid-history: recovery = snapshot + WAL tail
		"-measure", "degree",
		"-name", "crashtest",
	}
	d := startDaemon(t, flags...)
	for i := 0; i < 7; i++ {
		d.post(t, fmt.Sprintf("t%d", i), csvTable(i))
	}
	preTopk := d.get(t, "/topk?k=30&measure=degree")
	preVersion := d.version(t)
	d.kill9(t)

	// The /topk body carries the snapshot version, so one comparison pins
	// both "no acknowledged mutation lost" and "identical rankings".
	d2 := startDaemon(t, flags...)
	if got := d2.get(t, "/topk?k=30&measure=degree"); got != preTopk {
		t.Errorf("post-crash /topk differs:\npre:  %s\npost: %s", preTopk, got)
	}
	if got := d2.version(t); got != preVersion {
		t.Errorf("post-crash version = %v, want %v", got, preVersion)
	}
	d2.publishedOnce(t)

	// The recovered leader keeps accepting writes (the WAL chain continues
	// past the replayed history) and survives a second crash.
	d2.post(t, "t7", csvTable(7))
	preTopk = d2.get(t, "/topk?k=30&measure=degree")
	d2.kill9(t)
	d3 := startDaemon(t, flags...)
	if got := d3.get(t, "/topk?k=30&measure=degree"); got != preTopk {
		t.Errorf("second recovery /topk differs:\npre:  %s\npost: %s", preTopk, got)
	}
	d3.publishedOnce(t)
	d3.shutdown(t)
}

// TestProcessLeaderFollower runs a two-process replication pair: the
// follower must converge to the leader's version and serve bit-identical
// rankings, live-tail later mutations, and reject direct writes.
func TestProcessLeaderFollower(t *testing.T) {
	dir := t.TempDir()
	leader := startDaemon(t,
		"-wal", filepath.Join(dir, "wal"),
		"-measure", "degree",
		"-name", "repltest",
	)
	for i := 0; i < 4; i++ {
		leader.post(t, fmt.Sprintf("t%d", i), csvTable(i))
	}
	follower := startDaemon(t, "-follow", leader.url, "-measure", "degree")
	follower.waitVersion(t, leader.version(t), 15*time.Second)
	if l, f := leader.get(t, "/topk?k=30&measure=degree"), follower.get(t, "/topk?k=30&measure=degree"); l != f {
		t.Errorf("follower /topk diverges:\nleader:   %s\nfollower: %s", l, f)
	}

	// Live tail: a mutation after the follower attached propagates.
	leader.post(t, "late", csvTable(99))
	follower.waitVersion(t, leader.version(t), 15*time.Second)
	if l, f := leader.get(t, "/topk?k=30&measure=degree"), follower.get(t, "/topk?k=30&measure=degree"); l != f {
		t.Errorf("follower /topk diverges after live tail:\nleader:   %s\nfollower: %s", l, f)
	}

	// Followers are read-only.
	resp, err := http.Post(follower.url+"/tables/nope", "text/csv", strings.NewReader("a\nb\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("follower accepted a write: %d", resp.StatusCode)
	}

	follower.shutdown(t)
	leader.shutdown(t)
}

// TestProcessFleet runs the full serving fleet: one leader, two follower
// processes, and a read-router fronting them. The router must spread reads
// across caught-up followers, reject a follower that stops applying bursts
// (SIGSTOP freezes it mid-fleet: its version falls behind while the leader
// keeps committing), keep serving correct rankings through the outage, and
// readmit the follower once it catches back up.
func TestProcessFleet(t *testing.T) {
	dir := t.TempDir()
	leader := startDaemon(t,
		"-wal", filepath.Join(dir, "wal"),
		"-measure", "degree",
		"-name", "fleettest",
	)
	for i := 0; i < 4; i++ {
		leader.post(t, fmt.Sprintf("t%d", i), csvTable(i))
	}
	f1 := startDaemon(t, "-follow", leader.url, "-measure", "degree")
	f2 := startDaemon(t, "-follow", leader.url, "-measure", "degree")
	f1.waitVersion(t, leader.version(t), 15*time.Second)
	f2.waitVersion(t, leader.version(t), 15*time.Second)

	rt, err := router.New(router.Options{
		Leader:     leader.url,
		Replicas:   []string{f1.url, f2.url},
		MaxLag:     2,
		ReadmitLag: 1,
		Client:     &http.Client{Timeout: 500 * time.Millisecond},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := httptest.NewServer(rt)
	defer lb.Close()
	ctx := context.Background()
	rt.CheckNow(ctx)
	if st := rt.Status(); st.Admitted != 2 {
		t.Fatalf("caught-up fleet admitted %d of 2 replicas: %+v", st.Admitted, st)
	}

	// Routed reads are the leader's ranking, served by the replicas.
	getLB := func() (string, string) {
		t.Helper()
		resp, err := http.Get(lb.URL + "/topk?k=30&measure=degree")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed /topk = %d (%s)", resp.StatusCode, b)
		}
		return string(b), resp.Header.Get("X-Domainnet-Backend")
	}
	want := leader.get(t, "/topk?k=30&measure=degree")
	served := map[string]int{}
	for i := 0; i < 6; i++ {
		body, backend := getLB()
		if body != want {
			t.Fatalf("routed /topk diverges from leader:\nleader: %s\nrouted: %s", want, body)
		}
		served[backend]++
	}
	if len(served) != 2 || served[leader.url] != 0 {
		t.Errorf("reads spread over %v, want both followers and never the leader", served)
	}

	// Freeze follower 2: it stops polling, so the next three bursts put it
	// past the MaxLag=2 budget while follower 1 keeps up.
	if err := f2.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		leader.post(t, fmt.Sprintf("lagging%d", i), csvTable(10+i))
	}
	f1.waitVersion(t, leader.version(t), 15*time.Second)
	rt.CheckNow(ctx)
	if st := rt.Status(); st.Admitted != 1 {
		t.Fatalf("frozen follower not ejected: %+v", st)
	}
	want = leader.get(t, "/topk?k=30&measure=degree")
	for i := 0; i < 4; i++ {
		body, backend := getLB()
		if body != want {
			t.Fatalf("post-eject routed /topk diverges:\nleader: %s\nrouted: %s", want, body)
		}
		if backend != f1.url {
			t.Errorf("post-eject read served by %q, want the healthy follower %q", backend, f1.url)
		}
	}

	// Thaw it. Until it has caught back up to ReadmitLag it stays out of the
	// rotation; once its version reaches the leader's again, the next probe
	// rounds readmit it and it takes traffic.
	if err := f2.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for rt.Status().Admitted != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered follower never readmitted: %+v", rt.Status())
		}
		time.Sleep(100 * time.Millisecond)
		rt.CheckNow(ctx)
	}
	served = map[string]int{}
	for i := 0; i < 6; i++ {
		body, backend := getLB()
		if body != want {
			t.Fatalf("post-readmit routed /topk diverges:\nleader: %s\nrouted: %s", want, body)
		}
		served[backend]++
	}
	if served[f2.url] == 0 {
		t.Errorf("readmitted follower got no traffic: %v", served)
	}

	f2.shutdown(t)
	f1.shutdown(t)
	leader.shutdown(t)
}

// TestProcessObsTracing is the observability acceptance scenario, run over
// real daemon processes: a read routed through the fleet edge is traced at
// the router AND at the backend daemon under one trace ID, both traces are
// retrievable from the respective /debug/traces, the fleet-wide /lb/metrics
// merge covers every process, and the pprof surface answers only on its
// dedicated -debug-addr listener, never the public one.
func TestProcessObsTracing(t *testing.T) {
	dir := t.TempDir()
	// -trace-slow -1ns captures every request — the test mode; production
	// keeps the default 50ms gate.
	leader := startDaemon(t,
		"-wal", filepath.Join(dir, "wal"),
		"-measure", "degree",
		"-name", "obstest",
		"-trace-slow", "-1ns",
		"-debug-addr", "127.0.0.1:0",
	)
	if leader.debugURL == "" {
		t.Fatal("leader did not log its -debug-addr listener")
	}
	for i := 0; i < 3; i++ {
		leader.post(t, fmt.Sprintf("t%d", i), csvTable(i))
	}
	follower := startDaemon(t, "-follow", leader.url, "-measure", "degree", "-trace-slow", "-1ns")
	follower.waitVersion(t, leader.version(t), 15*time.Second)

	rt, err := router.New(router.Options{
		Leader:   leader.url,
		Replicas: []string{follower.url},
		Client:   &http.Client{Timeout: 2 * time.Second},
		Logf:     t.Logf,
		Tracer:   &obs.Tracer{SlowThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	if st := rt.Status(); st.Admitted != 1 {
		t.Fatalf("follower not admitted: %+v", st)
	}
	lb := httptest.NewServer(rt)
	defer lb.Close()

	// One routed read; the router mints the trace ID and stamps it on both
	// the proxied request and the response.
	resp, err := http.Get(lb.URL + "/topk?k=5&measure=degree")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	id := resp.Header.Get(obs.TraceHeader)
	if len(id) != 16 {
		t.Fatalf("routed response carries no trace ID: %q", id)
	}
	if got := resp.Header.Get(router.BackendHeader); got != follower.url {
		t.Fatalf("read served by %q, want the follower %q", got, follower.url)
	}

	// findTrace digs the trace with our ID out of a /debug/traces dump.
	findTrace := func(body string) map[string]any {
		t.Helper()
		var dump map[string]any
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			t.Fatal(err)
		}
		for _, tr := range dump["traces"].([]any) {
			tr := tr.(map[string]any)
			if tr["id"] == id {
				return tr
			}
		}
		return nil
	}
	spanNames := func(tr map[string]any) map[string]bool {
		names := make(map[string]bool)
		for _, sp := range tr["spans"].([]any) {
			names[sp.(map[string]any)["name"].(string)] = true
		}
		return names
	}

	// The router's leg: endpoint topk, an upstream span, the backend noted.
	routerResp, err := http.Get(lb.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(routerResp.Body)
	routerResp.Body.Close()
	routerTrace := findTrace(string(rb))
	if routerTrace == nil {
		t.Fatalf("trace %s missing from the router's /debug/traces: %s", id, rb)
	}
	if routerTrace["endpoint"] != "topk" || routerTrace["note"] != follower.url {
		t.Fatalf("router trace = %v", routerTrace)
	}
	if !spanNames(routerTrace)["upstream"] {
		t.Fatalf("router trace lacks the upstream span: %v", routerTrace)
	}

	// The backend's leg of the same request: same ID, handler-level spans.
	backendTrace := findTrace(follower.get(t, "/debug/traces"))
	if backendTrace == nil {
		t.Fatalf("trace %s missing from the follower's /debug/traces", id)
	}
	if backendTrace["endpoint"] != "topk" {
		t.Fatalf("backend trace = %v", backendTrace)
	}
	names := spanNames(backendTrace)
	for _, want := range []string{"parse", "snapshot", "score", "encode"} {
		if !names[want] {
			t.Fatalf("backend trace lacks span %q: %v", want, backendTrace)
		}
	}

	// Fleet-wide metrics cover both daemons plus the router's own edge.
	var fm map[string]any
	if err := json.Unmarshal([]byte(get2(t, lb.URL+"/lb/metrics")), &fm); err != nil {
		t.Fatal(err)
	}
	for _, b := range fm["backends"].([]any) {
		if b.(map[string]any)["error"] != nil {
			t.Fatalf("fleet scrape failed: %v", b)
		}
	}
	fleetTopk := fm["fleet"].(map[string]any)["topk"].(map[string]any)
	if fleetTopk["count"].(float64) < 1 || fleetTopk["p99_ns"].(float64) <= 0 {
		t.Fatalf("fleet topk metrics implausible: %v", fleetTopk)
	}
	// The follower's own /metrics carries its replication lag.
	var fmm map[string]any
	if err := json.Unmarshal([]byte(follower.get(t, "/metrics")), &fmm); err != nil {
		t.Fatal(err)
	}
	repl := fmm["replication"].(map[string]any)
	if repl["leader_reachable"] != true {
		t.Fatalf("follower replication telemetry = %v", repl)
	}
	// The Prometheus view renders the same replication section.
	if prom := follower.get(t, "/metrics?format=prom"); !strings.Contains(prom, "\ndomainnet_replication_leader_reachable 1\n") {
		t.Fatalf("follower Prometheus view lacks leader reachability:\n%s", prom)
	}

	// pprof answers on the dedicated listener only.
	pr, err := http.Get(leader.debugURL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pr.Body) //nolint:errcheck
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("pprof on -debug-addr = %d", pr.StatusCode)
	}
	pub, err := http.Get(leader.url + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pub.Body.Close()
	if pub.StatusCode == http.StatusOK {
		t.Fatal("pprof exposed on the public listener")
	}

	follower.shutdown(t)
	leader.shutdown(t)
}

// get2 fetches a URL, expecting 200, and returns the body.
func get2(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, resp.StatusCode, b)
	}
	return string(b)
}
