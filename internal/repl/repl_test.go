package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/serve"
	"domainnet/internal/table"
	"domainnet/internal/wal"
)

// newLeader builds a leader stack — WAL in a temp dir, serving layer with
// the write-ahead hook, replication endpoints mounted — over Figure 1.
func newLeader(t *testing.T) (*serve.Server, *Leader, *httptest.Server) {
	t.Helper()
	return newLeaderOver(t, datagen.Figure1Lake(),
		domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true})
}

// newLeaderOver is newLeader over any lake and detector configuration.
func newLeaderOver(t testing.TB, l *lake.Lake, cfg domainnet.Config) (*serve.Server, *Leader, *httptest.Server) {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	ld := NewLeader(log)
	ld.pollTimeout = 100 * time.Millisecond
	s := serve.NewWithOptions(l, cfg, serve.Options{OnCommit: ld.OnCommit})
	ld.Attach(s)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ld, ts
}

func newFollower(ts *httptest.Server) *Follower {
	return &Follower{
		Leader:    ts.URL,
		Config:    domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true},
		retryBase: 10 * time.Millisecond,
	}
}

func addTable(t *testing.T, s *serve.Server, name string) uint64 {
	t.Helper()
	v, err := s.Apply([]*table.Table{
		table.New(name).AddColumn("animal", "jaguar", "lion-"+name),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func body(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, resp.StatusCode, b)
	}
	return string(b)
}

func TestBootstrapAndCatchUp(t *testing.T) {
	leader, _, ts := newLeader(t)
	ctx := context.Background()

	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Version() != leader.Version() {
		t.Fatalf("bootstrap version %d, leader at %d", f.Version(), leader.Version())
	}

	// Mutations after bootstrap arrive through the change feed.
	addTable(t, leader, "cars")
	want := addTable(t, leader, "cities")
	n, err := f.Poll(ctx)
	if err != nil || n != 2 {
		t.Fatalf("Poll applied %d bursts, err %v; want 2", n, err)
	}
	if f.Version() != want {
		t.Fatalf("follower at %d, leader at %d", f.Version(), want)
	}

	// The replica serves identical rankings at the same version.
	fts := httptest.NewServer(f)
	defer fts.Close()
	if l, r := body(t, ts.URL+"/topk?k=25"), body(t, fts.URL+"/topk?k=25"); l != r {
		t.Errorf("follower /topk diverges from leader:\nleader: %s\nfollower: %s", l, r)
	}
	if l, r := body(t, ts.URL+"/score?value=jaguar"), body(t, fts.URL+"/score?value=jaguar"); l != r {
		t.Errorf("follower /score diverges from leader:\nleader: %s\nfollower: %s", l, r)
	}
}

func TestPollAppliesRemovals(t *testing.T) {
	leader, _, ts := newLeader(t)
	ctx := context.Background()
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	addTable(t, leader, "doomed")
	if _, err := leader.Apply(nil, []string{"doomed"}); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Poll(ctx); err != nil || n != 2 {
		t.Fatalf("Poll = %d, %v; want 2 bursts", n, err)
	}
	fts := httptest.NewServer(f)
	defer fts.Close()
	if got := body(t, fts.URL+"/score?value=lion-doomed"); !strings.Contains(got, `"found": false`) {
		t.Errorf("removed table's value survives on the follower: %s", got)
	}
}

func TestLongPollWakesOnCommit(t *testing.T) {
	leader, ld, ts := newLeader(t)
	ld.pollTimeout = 10 * time.Second // force the wake-up path, not the timeout
	f := newFollower(ts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		n, err := f.Poll(context.Background())
		if err == nil && n != 1 {
			err = fmt.Errorf("applied %d bursts, want 1", n)
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	addTable(t, leader, "wakeup")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on commit")
	}
}

func TestBehindHorizonFallsBackToSnapshot(t *testing.T) {
	log, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ld := NewLeader(log)
	ld.pollTimeout = 100 * time.Millisecond
	// A tiny tail ring: the records bridging the follower's version must
	// age out of memory too, or the ring would (correctly) bridge the
	// truncated log and the horizon path would never run.
	ld.tailCap = 2
	leader := serve.NewWithOptions(datagen.Figure1Lake(),
		domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true},
		serve.Options{OnCommit: ld.OnCommit})
	ld.Attach(leader)
	ts := httptest.NewServer(leader)
	defer ts.Close()

	f := newFollower(ts)
	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	stale := f.Version()

	// The leader advances and truncates its log past the follower's
	// version (tiny segments make every burst its own segment).
	for i := 0; i < 6; i++ {
		addTable(t, leader, fmt.Sprintf("ahead%d", i))
	}
	if err := log.Truncate(leader.Version()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.ReadFrames(stale); !errors.Is(err, wal.ErrGap) {
		t.Fatalf("test setup: log still bridges version %d", stale)
	}

	if _, err := f.Poll(ctx); !errors.Is(err, ErrBehindHorizon) {
		t.Fatalf("Poll behind the horizon = %v, want ErrBehindHorizon", err)
	}

	// Run's recovery loop: one cycle re-bootstraps and converges.
	ctx2, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	go f.Run(ctx2) //nolint:errcheck // returns ctx.Err on cancel
	for f.Version() != leader.Version() && ctx2.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if f.Version() != leader.Version() {
		t.Fatalf("follower stuck at %d, leader at %d", f.Version(), leader.Version())
	}
	cancel()
}

func TestEmptyLogBehindFollowerGetsGone(t *testing.T) {
	// A leader whose WAL is empty (fresh directory) but whose served state
	// is already past the follower's version has no deltas to bridge the
	// gap: the feed must answer 410 so the follower re-bootstraps, not
	// park it on 204s serving stale data forever.
	_, _, ts := newLeader(t) // Figure 1: version 4, no commits logged yet
	resp, err := http.Get(ts.URL + "/repl/changes?from=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("changes?from=2 against an empty log at version 4 = %d, want 410", resp.StatusCode)
	}
	// At the served version the same empty log means genuinely caught up:
	// the poll parks and times out with 204.
	resp, err = http.Get(ts.URL + "/repl/changes?from=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("changes?from=4 (caught up) = %d, want 204", resp.StatusCode)
	}
}

func TestAheadOfLeaderHistoryDiverges(t *testing.T) {
	// A replica whose version exceeds everything the leader ever committed
	// (the leader lost its WAL + snapshot and restarted) must be told to
	// re-bootstrap, not parked on a feed that would later hand it deltas
	// from an unrelated history with coincidentally matching stamps.
	leader, _, ts := newLeader(t)
	ctx := context.Background()
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	// Push the replica ahead of the leader behind replication's back.
	if _, err := f.Server().Apply([]*table.Table{
		table.New("phantom").AddColumn("c", "v"),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if f.Version() <= leader.Version() {
		t.Fatal("test setup: follower not ahead")
	}
	if _, err := f.Poll(ctx); !errors.Is(err, ErrDiverged) {
		t.Fatalf("Poll while ahead of the leader = %v, want ErrDiverged", err)
	}
	// Run's recovery downgrades the replica to the leader's history.
	ctx2, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	go f.Run(ctx2) //nolint:errcheck // returns ctx.Err on cancel
	for f.Version() != leader.Version() && ctx2.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if f.Version() != leader.Version() {
		t.Fatalf("replica stuck at %d, leader at %d", f.Version(), leader.Version())
	}
}

func TestFollowerServesReadOnly(t *testing.T) {
	_, _, ts := newLeader(t)
	f := newFollower(ts)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f)
	defer fts.Close()

	req, _ := http.NewRequest(http.MethodDelete, fts.URL+"/tables/animals", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("DELETE on follower = %d, want 403", resp.StatusCode)
	}
}

func TestServeHTTPBeforeBootstrap(t *testing.T) {
	f := &Follower{Leader: "http://127.0.0.1:0"}
	fts := httptest.NewServer(f)
	defer fts.Close()
	resp, err := http.Get(fts.URL + "/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("read before bootstrap = %d, want 503", resp.StatusCode)
	}
}

// TestBootstrapFromLeaderWithoutValues bootstraps followers from a leader
// that never had a table and from one whose every table was removed, then
// checks the change feed still applies on top of those snapshots.
func TestBootstrapFromLeaderWithoutValues(t *testing.T) {
	emptied := datagen.Figure1Lake()
	var names []string
	for _, tb := range emptied.Tables() {
		names = append(names, tb.Name)
	}
	for _, tc := range []struct {
		l      *lake.Lake
		remove []string
	}{{lake.New("empty"), nil}, {emptied, names}} {
		leader, _, ts := newLeaderOver(t, tc.l,
			domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true})
		if tc.remove != nil {
			if _, err := leader.Apply(nil, tc.remove); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		f := newFollower(ts)
		if err := f.Bootstrap(ctx); err != nil {
			t.Fatalf("%s: %v", tc.l.Name, err)
		}
		want := addTable(t, leader, "zoo")
		if _, err := f.Poll(ctx); err != nil || f.Version() != want {
			t.Fatalf("%s: follower at %d (err %v), leader at %d", tc.l.Name, f.Version(), err, want)
		}
		fts := httptest.NewServer(f)
		if l, r := body(t, ts.URL+"/topk?k=25"), body(t, fts.URL+"/topk?k=25"); l != r {
			t.Errorf("%s: follower /topk diverges from leader:\nleader: %s\nfollower: %s", tc.l.Name, l, r)
		}
		fts.Close()
	}
}

// promCounters scrapes a replica's Prometheus exposition and returns every
// counter sample (a _total series, or a histogram's _count) by series.
func promCounters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body(t, url+"/metrics?format=prom"), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if name, _, _ := strings.Cut(series, "{"); !ok || strings.HasPrefix(line, "#") ||
			!strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestRebootstrapKeepsCounters: a follower that bootstraps again installs a
// new server, and no counter of its /metrics may go backwards — the warm and
// publish counters count on from the replaced server's, as endpoint
// accounting does.
func TestRebootstrapKeepsCounters(t *testing.T) {
	leader, _, ts := newLeader(t)
	ctx := context.Background()
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f)
	defer fts.Close()
	idle := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if ws := f.Server().WarmStats(); ws.Started == ws.Completed+ws.Cancelled {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower warms never went idle: %+v", f.Server().WarmStats())
			}
		}
	}
	for _, name := range []string{"cars", "cities"} { // one publish per poll
		addTable(t, leader, name)
		if _, err := f.Poll(ctx); err != nil {
			t.Fatal(err)
		}
	}
	idle()
	body(t, fts.URL+"/topk?k=3")
	before := promCounters(t, fts.URL)
	if before["domainnet_warms_total{result=\"started\"}"] < 3 {
		t.Fatalf("test setup: follower warmed %v times, want 3", before["domainnet_warms_total{result=\"started\"}"])
	}

	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	idle()
	after := promCounters(t, fts.URL)
	for series, v := range before {
		if after[series] < v {
			t.Errorf("%s went from %v to %v across the re-bootstrap", series, v, after[series])
		}
	}
}
