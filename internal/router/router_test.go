package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
	"domainnet/internal/table"
	"domainnet/internal/wal"
)

// fleet is an in-process serving fleet: a leader with the replication
// endpoints attached plus bootstrapped followers, each behind a real
// listener. Followers are driven explicitly (poll, or don't) so tests
// control lag deterministically.
type fleet struct {
	leader    *serve.Server
	leaderTS  *httptest.Server
	followers []*repl.Follower
	replicaTS []*httptest.Server
}

func newFleet(t *testing.T, replicas int) *fleet {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	ld := repl.NewLeader(log)
	cfg := domainnet.Config{Measure: domainnet.DegreeBaseline, KeepSingletons: true}
	s := serve.NewWithOptions(datagen.Figure1Lake(), cfg, serve.Options{OnCommit: ld.OnCommit})
	ld.Attach(s)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	fl := &fleet{leader: s, leaderTS: ts}
	for i := 0; i < replicas; i++ {
		f := &repl.Follower{Leader: ts.URL, Config: cfg}
		if err := f.Bootstrap(context.Background()); err != nil {
			t.Fatal(err)
		}
		fts := httptest.NewServer(f)
		t.Cleanup(fts.Close)
		fl.followers = append(fl.followers, f)
		fl.replicaTS = append(fl.replicaTS, fts)
	}
	return fl
}

func (fl *fleet) replicaURLs() []string {
	urls := make([]string, len(fl.replicaTS))
	for i, ts := range fl.replicaTS {
		urls[i] = ts.URL
	}
	return urls
}

// mutate applies one burst to the leader.
func (fl *fleet) mutate(t *testing.T, name string) uint64 {
	t.Helper()
	v, err := fl.leader.Apply([]*table.Table{
		table.New(name).AddColumn("animal", "jaguar", "lion-"+name),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newRouter(t *testing.T, fl *fleet, maxLag, readmitLag uint64) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Options{
		Leader:     fl.leaderTS.URL,
		Replicas:   fl.replicaURLs(),
		MaxLag:     maxLag,
		ReadmitLag: readmitLag,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

// get fetches a URL and returns the response, body consumed and closed.
func get(t *testing.T, url string) (*http.Response, string) {
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
	return resp, string(b)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New without a leader succeeded")
	}
	if _, err := New(Options{Leader: "not a url"}); err == nil {
		t.Error("New with a relative leader URL succeeded")
	}
	if _, err := New(Options{Leader: "http://x", Replicas: []string{"::bad"}}); err == nil {
		t.Error("New with a junk replica URL succeeded")
	}
	if _, err := New(Options{Leader: "http://x", MaxLag: 2, ReadmitLag: 5}); err == nil {
		t.Error("New with ReadmitLag > MaxLag succeeded")
	}
}

func TestReadsSpreadAcrossCaughtUpReplicas(t *testing.T) {
	fl := newFleet(t, 2)
	rt, ts := newRouter(t, fl, 4, 2)
	rt.CheckNow(context.Background())
	if st := rt.Status(); st.Admitted != 2 {
		t.Fatalf("after a clean probe %d of 2 replicas admitted: %+v", st.Admitted, st)
	}

	_, want := get(t, fl.leaderTS.URL+"/topk?k=10")
	served := map[string]int{}
	for i := 0; i < 6; i++ {
		resp, body := get(t, ts.URL+"/topk?k=10")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed /topk = %d", resp.StatusCode)
		}
		if body != want {
			t.Fatalf("routed /topk diverges from leader:\nleader: %s\nrouted: %s", want, body)
		}
		backend := resp.Header.Get(BackendHeader)
		if backend == "" {
			t.Fatal("routed response carries no backend header")
		}
		served[backend]++
	}
	if len(served) != 2 {
		t.Errorf("6 reads landed on %d backend(s), want both replicas: %v", len(served), served)
	}
	if served[fl.leaderTS.URL] != 0 {
		t.Errorf("reads hit the leader while replicas were admitted: %v", served)
	}
}

func TestMutationsForwardToLeader(t *testing.T) {
	fl := newFleet(t, 1)
	rt, ts := newRouter(t, fl, 4, 2)
	rt.CheckNow(context.Background())

	before := fl.leader.Version()
	resp, err := http.Post(ts.URL+"/tables/routed", "text/csv",
		strings.NewReader("animal\njaguar\nrouted-beast\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed mutation = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(BackendHeader) != fl.leaderTS.URL {
		t.Errorf("mutation served by %q, want the leader %q",
			resp.Header.Get(BackendHeader), fl.leaderTS.URL)
	}
	if fl.leader.Version() != before+1 {
		t.Errorf("leader version %d after routed mutation, want %d", fl.leader.Version(), before+1)
	}
}

func TestLagEjectAndReadmit(t *testing.T) {
	fl := newFleet(t, 2)
	rt, ts := newRouter(t, fl, 4, 2)
	ctx := context.Background()
	rt.CheckNow(ctx)
	lagging := fl.replicaTS[1].URL

	// Three bursts: both replicas now trail by 3, inside the MaxLag=4
	// tolerance band, so neither is ejected — hysteresis keeps an admitted
	// replica serving slightly stale reads rather than flapping.
	for i := 0; i < 3; i++ {
		fl.mutate(t, fmt.Sprintf("band%d", i))
	}
	rt.CheckNow(ctx)
	if st := rt.Status(); st.Admitted != 2 {
		t.Fatalf("lag 3 <= MaxLag 4 ejected someone: %+v", st)
	}

	// Two more bursts push lag to 5: past MaxLag. Replica 0 polls and stays;
	// replica 1 does not and must leave the rotation.
	fl.mutate(t, "over1")
	fl.mutate(t, "over2")
	if _, err := fl.followers[0].Poll(ctx); err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(ctx)
	st := rt.Status()
	if st.Admitted != 1 {
		t.Fatalf("lagging replica not ejected: %+v", st)
	}
	for _, b := range st.Replicas {
		if b.URL == lagging && (b.Admitted || b.Lag != 5) {
			t.Errorf("lagging replica status = %+v, want ejected at lag 5", b)
		}
	}

	// While ejected, every read lands on the caught-up replica.
	for i := 0; i < 4; i++ {
		resp, _ := get(t, ts.URL+"/topk?k=10")
		if backend := resp.Header.Get(BackendHeader); backend != fl.replicaTS[0].URL {
			t.Errorf("read %d served by %q while %q was ejected", i, backend, lagging)
		}
	}

	// Still behind after another probe round: stays out (readmission needs
	// lag <= ReadmitLag=2, not merely <= MaxLag).
	rt.CheckNow(ctx)
	if st := rt.Status(); st.Admitted != 1 {
		t.Fatalf("ejected replica readmitted without catching up: %+v", st)
	}

	// Catch up and return to rotation.
	if _, err := fl.followers[1].Poll(ctx); err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(ctx)
	if st := rt.Status(); st.Admitted != 2 {
		t.Fatalf("caught-up replica not readmitted: %+v", st)
	}
	served := map[string]int{}
	for i := 0; i < 6; i++ {
		resp, _ := get(t, ts.URL+"/topk?k=10")
		served[resp.Header.Get(BackendHeader)]++
	}
	if served[lagging] == 0 {
		t.Errorf("readmitted replica got no traffic: %v", served)
	}
}

func TestBootstrappingReplicaStaysOut(t *testing.T) {
	fl := newFleet(t, 1)
	// A follower that has not bootstrapped yet: /repl/status answers
	// "bootstrapping" while every read 503s.
	cold := &repl.Follower{Leader: fl.leaderTS.URL,
		Config: domainnet.Config{Measure: domainnet.DegreeBaseline, KeepSingletons: true}}
	coldTS := httptest.NewServer(cold)
	defer coldTS.Close()

	rt, ts := newRouter(t, &fleet{
		leader:    fl.leader,
		leaderTS:  fl.leaderTS,
		followers: []*repl.Follower{fl.followers[0], cold},
		replicaTS: []*httptest.Server{fl.replicaTS[0], coldTS},
	}, 4, 2)
	rt.CheckNow(context.Background())
	st := rt.Status()
	if st.Admitted != 1 {
		t.Fatalf("bootstrapping replica admitted: %+v", st)
	}
	for _, b := range st.Replicas {
		if b.URL == coldTS.URL && b.State != "bootstrapping" {
			t.Errorf("cold replica state = %q, want bootstrapping", b.State)
		}
	}
	for i := 0; i < 4; i++ {
		resp, _ := get(t, ts.URL+"/topk?k=10")
		if resp.StatusCode != http.StatusOK || resp.Header.Get(BackendHeader) == coldTS.URL {
			t.Errorf("read %d: %d from %q — cold replica took traffic",
				i, resp.StatusCode, resp.Header.Get(BackendHeader))
		}
	}
}

func TestNoReplicasFallsBackToLeader(t *testing.T) {
	fl := newFleet(t, 0)
	rt, ts := newRouter(t, fl, 4, 2)
	rt.CheckNow(context.Background())
	resp, body := get(t, ts.URL+"/topk?k=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader-only read = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(BackendHeader) != fl.leaderTS.URL {
		t.Errorf("leader-only read served by %q", resp.Header.Get(BackendHeader))
	}
}

func TestRequestErrorEjectsImmediately(t *testing.T) {
	fl := newFleet(t, 2)
	rt, ts := newRouter(t, fl, 4, 2)
	rt.CheckNow(context.Background())

	// Kill one replica's listener without telling the router. The next
	// request routed to it 502s and ejects it on the spot; everything after
	// that is served by the survivor without waiting for a probe round.
	fl.replicaTS[1].Close()
	bad := 0
	for i := 0; i < 3; i++ {
		resp, _ := get(t, ts.URL+"/topk?k=10")
		if resp.StatusCode == http.StatusBadGateway {
			bad++
		}
	}
	if bad > 1 {
		t.Errorf("%d requests 502ed; the first failure should have ejected the dead backend", bad)
	}
	if st := rt.Status(); st.Admitted != 1 {
		t.Fatalf("dead backend still admitted: %+v", st)
	}
	for i := 0; i < 4; i++ {
		resp, _ := get(t, ts.URL+"/topk?k=10")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("post-eject read %d = %d", i, resp.StatusCode)
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	fl := newFleet(t, 1)
	rt, ts := newRouter(t, fl, 4, 2)
	rt.CheckNow(context.Background())
	resp, body := get(t, ts.URL+"/lb/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/lb/status = %d", resp.StatusCode)
	}
	var st FleetStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/lb/status is not JSON: %v\n%s", err, body)
	}
	if st.LeaderURL != fl.leaderTS.URL || st.LeaderVersion != fl.leader.Version() {
		t.Errorf("status leader = %q@%d, want %q@%d",
			st.LeaderURL, st.LeaderVersion, fl.leaderTS.URL, fl.leader.Version())
	}
	if len(st.Replicas) != 1 || !st.Replicas[0].Admitted {
		t.Errorf("status replicas = %+v, want one admitted", st.Replicas)
	}
}

func TestRunProbesOnTicker(t *testing.T) {
	fl := newFleet(t, 1)
	rt, _ := newRouter(t, fl, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.opts.CheckInterval = 10 * time.Millisecond
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Status().Admitted != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Run never admitted a healthy replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
}

// countingPool counts the buffers a proxy borrows from and returns to the
// pool it wraps.
type countingPool struct {
	httputil.BufferPool
	gets, puts atomic.Int64
}

func (c *countingPool) Get() []byte  { c.gets.Add(1); return c.BufferPool.Get() }
func (c *countingPool) Put(b []byte) { c.puts.Add(1); c.BufferPool.Put(b) }

// TestProxiedResponsesBorrowCopyBuffers: every backend's proxy shares the
// router's one buffer pool, and a proxied response borrows its copy buffer
// from it and gives it back.
func TestProxiedResponsesBorrowCopyBuffers(t *testing.T) {
	fl := newFleet(t, 2)
	rt, ts := newRouter(t, fl, 4, 2)
	rt.CheckNow(context.Background())
	pool := &countingPool{BufferPool: rt.buffers}
	for _, b := range append([]*backend{rt.leader}, rt.replicas...) {
		if b.proxy.BufferPool != rt.buffers {
			t.Fatalf("backend %s does not use the router's buffer pool", b.url)
		}
		b.proxy.BufferPool = pool
	}
	const reads = 6
	for range reads {
		if resp, _ := get(t, ts.URL+"/topk?k=3"); resp.StatusCode != http.StatusOK {
			t.Fatalf("/topk: %s", resp.Status)
		}
	}
	resp, err := http.Post(ts.URL+"/tables/borrow", "text/csv", strings.NewReader("animal\njaguar\npuma\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tables/borrow: %s", resp.Status)
	}
	if gets, puts := pool.gets.Load(), pool.puts.Load(); gets < reads+1 || puts != gets {
		t.Fatalf("%d proxied responses borrowed %d buffers and returned %d", reads+1, gets, puts)
	}
}
