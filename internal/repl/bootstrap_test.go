package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/persist"
	"domainnet/internal/serve"
	"domainnet/internal/table"
)

// truncWriter passes the first remain body bytes through and silently
// swallows the rest: the response still ends cleanly at the HTTP layer, so
// the client sees a frame torn mid-chunk — exactly what a dropped connection
// leaves behind.
type truncWriter struct {
	http.ResponseWriter
	remain int
}

func (w *truncWriter) Write(p []byte) (int, error) {
	n := len(p)
	if w.remain <= 0 {
		return n, nil
	}
	if len(p) > w.remain {
		p = p[:w.remain]
	}
	if _, err := w.ResponseWriter.Write(p); err != nil {
		return 0, err
	}
	w.remain -= len(p)
	return n, nil
}

// flakyLeader fronts a leader handler and truncates snapshot responses per
// the cuts schedule (one entry per snapshot request; missing entries pass
// everything through). It records every snapshot request URL.
type flakyLeader struct {
	inner    http.Handler
	mu       sync.Mutex
	cuts     []int // body bytes to let through per snapshot request; -1 = all
	requests []string
	between  func() // runs after each truncated response (e.g. mutate leader)
}

func (fl *flakyLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/repl/snapshot" {
		fl.inner.ServeHTTP(w, r)
		return
	}
	fl.mu.Lock()
	n := len(fl.requests)
	fl.requests = append(fl.requests, r.URL.String())
	cut := -1
	if n < len(fl.cuts) {
		cut = fl.cuts[n]
	}
	between := fl.between
	fl.mu.Unlock()
	if cut < 0 {
		fl.inner.ServeHTTP(w, r)
		return
	}
	fl.inner.ServeHTTP(&truncWriter{ResponseWriter: w, remain: cut}, r)
	if between != nil {
		between()
	}
}

func (fl *flakyLeader) snapshotRequests() []string {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return append([]string(nil), fl.requests...)
}

// growLake applies n tables of two dozen distinct values each, inflating
// the leader's snapshot to several KiB so chunking tests have room to tear.
func growLake(t *testing.T, s *serve.Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		vals := make([]string, 24)
		for j := range vals {
			vals[j] = fmt.Sprintf("city-%d-%d", i, j)
		}
		if _, err := s.Apply([]*table.Table{
			table.New(fmt.Sprintf("grow%d", i)).AddColumn("city", vals...),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChunkedBootstrapCompressesWire: the chunked gzip bootstrap moves
// fewer bytes than the codec it frames, and on the SB lake at least 2x fewer
// and fewer than format 3 moved for it (154,514 bytes).
func TestChunkedBootstrapCompressesWire(t *testing.T) {
	for _, c := range []struct {
		name      string
		lake      *lake.Lake
		cfg       domainnet.Config
		minShrink float64
		maxWire   int64 // 0: no bound
	}{
		{"figure1", datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}, 1, 0},
		{"sb", datagen.NewSB(1).Lake, domainnet.Config{Measure: domainnet.DegreeBaseline}, 2, 154514},
	} {
		t.Run(c.name, func(t *testing.T) {
			leader, _, ts := newLeaderOver(t, c.lake, c.cfg)
			f := &Follower{Leader: ts.URL, Config: c.cfg}
			if err := f.Bootstrap(context.Background()); err != nil {
				t.Fatal(err)
			}
			if f.Version() != leader.Version() {
				t.Fatalf("bootstrap version %d, leader at %d", f.Version(), leader.Version())
			}
			st := f.BootstrapStats()
			if st.RawBytes == 0 || st.WireBytes == 0 {
				t.Fatalf("bootstrap stats not recorded: %+v", st)
			}
			shrink := float64(st.RawBytes) / float64(st.WireBytes)
			if shrink <= 1 || shrink < c.minShrink {
				t.Errorf("chunked gzip bootstrap moved %d wire bytes for %d raw bytes (%.2fx), want more than 1x and at least %.0fx",
					st.WireBytes, st.RawBytes, shrink, c.minShrink)
			}
			if c.maxWire != 0 && st.WireBytes >= c.maxWire {
				t.Errorf("chunked gzip bootstrap moved %d wire bytes, want fewer than format 3's %d", st.WireBytes, c.maxWire)
			}
			if st.Resumes != 0 || st.Restarts != 0 {
				t.Errorf("clean bootstrap recorded %d resumes, %d restarts", st.Resumes, st.Restarts)
			}
			t.Logf("bootstrap moved %d wire bytes for %d raw bytes (%.1fx)", st.WireBytes, st.RawBytes, shrink)
		})
	}
}

// TestFollowerCheckpointsLeaderBytes: snapshot bytes are canonical. A
// follower numbers its symbols in byte order from its bootstrap on, its
// leader in first-appearance order, and each then reuses or appends IDs as
// its own history dictates. Yet at every version, through adds, a removal,
// a dead value coming back and a compaction of both symbol tables, the
// follower's published lake encodes to the leader's bytes.
func TestFollowerCheckpointsLeaderBytes(t *testing.T) {
	leader, _, ts := newLeader(t)
	ctx := context.Background()
	// The leader keeps a dead ID for "lion-doomed" below the ID of
	// "lion-keeper"; the follower never sees the dead one.
	addTable(t, leader, "doomed")
	addTable(t, leader, "keeper")
	if _, err := leader.Apply(nil, []string{"doomed"}); err != nil {
		t.Fatal(err)
	}
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	encode := func(s *serve.Server) (raw []byte, symbols []string) {
		t.Helper()
		if err := s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			raw = persist.Marshal(l, g)
			for id := range l.Symbols().Len() {
				symbols = append(symbols, l.Symbols().String(uint32(id)))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return raw, symbols
	}
	bulk := make([]string, 9000) // fresh values outnumbering the live ones past the compaction floor
	for i := range bulk {
		bulk[i] = fmt.Sprintf("bulk-%d", i)
	}
	differed := false
	for _, step := range []struct {
		name   string
		add    []*table.Table
		remove []string
	}{
		{name: "bootstrap"},
		{name: "a dead value returns", add: []*table.Table{table.New("back").AddColumn("animal", "lion-doomed", "Puma", "aardvark")}},
		{name: "two tables", add: []*table.Table{
			table.New("zoo").AddColumn("animal", "zebra", "jaguar ", "Apple"),
			table.New("fruit").AddColumn("name", "apple", "kiwi"),
		}},
		{name: "removal", remove: []string{"back"}},
		{name: "bulk", add: []*table.Table{table.New("bulk").AddColumn("v", bulk...)}},
		{name: "compaction", remove: []string{"bulk"}},
		{name: "after compaction", add: []*table.Table{table.New("late").AddColumn("animal", "lion-doomed", "ant")}},
	} {
		if step.add != nil || step.remove != nil {
			if _, err := leader.Apply(step.add, step.remove); err != nil {
				t.Fatal(err)
			}
			if n, err := f.Poll(ctx); err != nil || n != 1 {
				t.Fatalf("%s: Poll = %d, %v; want 1 burst", step.name, n, err)
			}
		}
		if f.Version() != leader.Version() {
			t.Fatalf("%s: follower at %d, leader at %d", step.name, f.Version(), leader.Version())
		}
		want, leaderSyms := encode(leader)
		got, followerSyms := encode(f.Server())
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the follower's snapshot (%d bytes) differs from the leader's (%d bytes)", step.name, len(got), len(want))
		}
		differed = differed || !slices.Equal(leaderSyms, followerSyms)
		if step.name == "compaction" && (len(leaderSyms) >= len(bulk) || len(followerSyms) >= len(bulk)) {
			t.Fatalf("removing the bulk table left %d leader and %d follower symbols: no compaction", len(leaderSyms), len(followerSyms))
		}
	}
	if !differed {
		t.Error("the leader's and the follower's symbol IDs never differed")
	}
}

func TestBootstrapResumesTornStream(t *testing.T) {
	leader, ld, ts := newLeader(t)
	ld.chunkBytes = 512
	// Grow the snapshot well past a handful of chunks so two mid-stream cuts
	// cannot accidentally deliver the whole thing.
	growLake(t, leader, 30)
	// Cut the first two transfers mid-stream; later ones pass everything.
	fl := &flakyLeader{inner: tsHandler(ts), cuts: []int{600, 600}}
	proxy := httptest.NewServer(fl)
	defer proxy.Close()

	f := newFollower(proxy)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := f.BootstrapStats()
	if st.Resumes < 2 {
		t.Errorf("two torn streams recorded %d resumes, want >= 2", st.Resumes)
	}
	if st.Restarts != 0 {
		t.Errorf("stable-version resume recorded %d restarts", st.Restarts)
	}
	reqs := fl.snapshotRequests()
	if len(reqs) < 3 {
		t.Fatalf("bootstrap made %d snapshot requests, want >= 3: %q", len(reqs), reqs)
	}
	// Every re-request must resume at a non-zero chunk-aligned offset, not
	// restart the download.
	for _, u := range reqs[1:] {
		if !strings.Contains(u, "offset=") || strings.Contains(u, "offset=0&") {
			t.Errorf("re-request %q does not resume from a prior offset", u)
		}
	}
	// The replica must be whole: identical ranking to the leader's.
	fts := httptest.NewServer(f)
	defer fts.Close()
	if l, r := body(t, ts.URL+"/topk?k=25"), body(t, fts.URL+"/topk?k=25"); l != r {
		t.Errorf("resumed bootstrap diverges from leader:\nleader: %s\nfollower: %s", l, r)
	}
}

// tsHandler unwraps an httptest server into a handler that forwards to it
// over its own listener, preserving real HTTP framing end to end.
func tsHandler(ts *httptest.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, ts.URL+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := ts.Client().Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // test proxy
	})
}

func TestBootstrapRestartsWhenSnapshotMoves(t *testing.T) {
	leader, ld, ts := newLeader(t)
	ld.chunkBytes = 512
	growLake(t, leader, 10) // so the cut below tears the transfer
	fl := &flakyLeader{inner: tsHandler(ts), cuts: []int{700}}
	// After the torn first transfer, the leader moves on: the partial chunks
	// describe a snapshot version that no longer exists, so the resume must
	// be refused and the bootstrap must start over at the new version.
	fl.between = func() { addTable(t, leader, "moved-on") }
	proxy := httptest.NewServer(fl)
	defer proxy.Close()

	f := newFollower(proxy)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := f.BootstrapStats()
	if st.Restarts < 1 {
		t.Errorf("version-moved resume recorded %d restarts, want >= 1", st.Restarts)
	}
	if f.Version() != leader.Version() {
		t.Errorf("restarted bootstrap landed at version %d, leader at %d", f.Version(), leader.Version())
	}
}

func TestBootstrapFailsWithoutProgress(t *testing.T) {
	// A leader that never delivers a single chunk must fail the bootstrap
	// (bounded retries), not spin forever.
	leader, ld, ts := newLeader(t)
	ld.chunkBytes = 512
	fl := &flakyLeader{inner: tsHandler(ts), cuts: []int{0, 0, 0, 0, 0, 0, 0, 0}}
	proxy := httptest.NewServer(fl)
	defer proxy.Close()

	f := newFollower(proxy)
	done := make(chan error, 1)
	go func() { done <- f.Bootstrap(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("zero-progress bootstrap reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("zero-progress bootstrap did not terminate")
	}

	// A 200 whose body is the bare codec, without the chunked header, is
	// not a snapshot answer: the bootstrap fails and installs nothing.
	var raw []byte
	if err := leader.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
		raw = persist.Marshal(l, g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	unchunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(VersionHeader, strconv.FormatUint(leader.Version(), 10))
		w.Write(raw) //nolint:errcheck // test fake
	}))
	defer unchunked.Close()
	f = newFollower(unchunked)
	if err := f.Bootstrap(context.Background()); err == nil || !strings.Contains(err.Error(), SnapshotChunkedHeader) {
		t.Errorf("unchunked 200 bootstrap = %v, want an error naming %s", err, SnapshotChunkedHeader)
	}
	if f.Server() != nil || f.Version() != 0 {
		t.Errorf("unchunked 200 installed a replica at version %d", f.Version())
	}
}

func TestSnapshotEndpointProtocol(t *testing.T) {
	leader, _, ts := newLeader(t)
	get := func(path string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// The snapshot has one shape: a request that does not ask for chunks
	// is refused, and the refusal names the parameter.
	plain := get("/repl/snapshot")
	if msg, _ := io.ReadAll(plain.Body); plain.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "chunked") {
		t.Errorf("plain snapshot = %d %q, want 400 naming chunked", plain.StatusCode, msg)
	}

	chunked := get("/repl/snapshot?chunked=1")
	if got, want := chunked.Header.Get(VersionHeader), strconv.FormatUint(leader.Version(), 10); got != want {
		t.Errorf("chunked snapshot %s = %q, want %s", VersionHeader, got, want)
	}
	if chunked.Header.Get(SnapshotChunkedHeader) == "" || chunked.Header.Get("Content-Encoding") != "" {
		t.Errorf("chunked request got headers chunked=%q Content-Encoding=%q, want chunked and no Content-Encoding",
			chunked.Header.Get(SnapshotChunkedHeader), chunked.Header.Get("Content-Encoding"))
	}
	if chunked.Header.Get(SnapshotSizeHeader) == "" || chunked.Header.Get(VersionHeader) == "" {
		t.Error("chunked response is missing size or version headers")
	}

	if resp := get("/repl/snapshot?chunked=1&offset=512"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("offset without version = %d, want 400", resp.StatusCode)
	}
	if resp := get("/repl/snapshot?chunked=1&offset=512&version=99999"); resp.StatusCode != http.StatusConflict {
		t.Errorf("offset at a stale version = %d, want 409", resp.StatusCode)
	}
	cur := chunked.Header.Get(VersionHeader)
	if resp := get("/repl/snapshot?chunked=1&offset=7&version=" + cur); resp.StatusCode != http.StatusConflict {
		t.Errorf("misaligned offset = %d, want 409", resp.StatusCode)
	}
}

// firstByteWriter records the address of the first body byte written, so a
// test can tell which cached buffer a response was served from.
type firstByteWriter struct {
	*httptest.ResponseRecorder
	first *byte
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.first == nil && len(p) > 0 {
		w.first = &p[0]
	}
	return w.ResponseRecorder.Write(p)
}

func TestSnapshotStormEncodesOncePerVersion(t *testing.T) {
	leader, ld, _ := newLeader(t)
	const chunk = 512
	ld.chunkBytes = chunk
	growLake(t, leader, 10)
	get := func(query, accept string) *firstByteWriter {
		req := httptest.NewRequest(http.MethodGet, "/repl/snapshot"+query, nil)
		req.Header.Set("Accept-Encoding", accept)
		w := &firstByteWriter{ResponseRecorder: httptest.NewRecorder()}
		ld.handleSnapshot(w, req)
		if w.Code != http.StatusOK || w.first == nil {
			t.Errorf("GET /repl/snapshot%s (%s) = %d with %d body bytes", query, accept, w.Code, w.Body.Len())
		}
		return w
	}

	// A storm of fresh gzip joiners, an identity joiner and a resume, all
	// at one version. Every encode allocates a new buffer, so one encode
	// shows as every response sharing its buffer.
	const storm = 16
	resume := fmt.Sprintf("?chunked=1&offset=%d&version=%d", 2*chunk, leader.Version())
	gz := make([]*firstByteWriter, storm)
	var identity, resumed *firstByteWriter
	var wg sync.WaitGroup
	for i := range gz {
		wg.Add(1)
		go func() { defer wg.Done(); gz[i] = get("?chunked=1", "gzip") }()
	}
	wg.Add(2)
	go func() { defer wg.Done(); identity = get("?chunked=1", "identity") }()
	go func() { defer wg.Done(); resumed = get(resume, "gzip") }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	cs := ld.snapStream
	if cs == nil {
		t.Fatal("storm left no cached stream")
	}
	for i, w := range gz {
		if w.first != &cs.Wire[0] {
			t.Errorf("gzip joiner %d was not served from the one cached stream", i)
		}
	}
	if identity.first != &cs.Wire[0] {
		t.Error("identity joiner was not served from the one cached stream")
	}
	if resumed.first != &cs.Wire[cs.Starts[2]] {
		t.Error("resume at chunk 2 was not served from the cached stream at chunk 2's frame")
	}

	// One write: the next request encodes exactly once more.
	addTable(t, leader, "storm")
	first := get("?chunked=1", "gzip")
	if first.first == gz[0].first {
		t.Fatal("request after a write was served the previous version's stream")
	}
	if again := get("?chunked=1", "identity"); again.first != first.first {
		t.Error("second request at the new version encoded again")
	}
	if n := ld.Stats().Encodes; n != 2 {
		t.Errorf("two versions took %d encodes, want 2", n)
	}
}

// TestSnapshotChunkedWireMatchesWriteChunked: the cached stream is served
// byte for byte as persist.WriteChunked frames it with gzip, from every
// chunk-aligned offset (the snapshot's end included).
func TestSnapshotChunkedWireMatchesWriteChunked(t *testing.T) {
	leader, ld, ts := newLeader(t)
	growLake(t, leader, 10)
	// 512-byte chunks, then one chunk spanning the whole snapshot so that
	// resuming exactly at its end is a chunk boundary. A write between the
	// two drops the cached stream.
	for i, chunkOf := range []func(int) int{
		func(int) int { return 512 },
		func(n int) int { return n },
	} {
		if i > 0 {
			addTable(t, leader, "rechunk")
		}
		var raw []byte
		if err := leader.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			raw = persist.Marshal(l, g)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		chunk := chunkOf(len(raw))
		ld.chunkBytes = chunk
		for off := 0; off <= len(raw); off += chunk {
			url := fmt.Sprintf("%s/repl/snapshot?chunked=1&offset=%d&version=%d", ts.URL, off, leader.Version())
			req, _ := http.NewRequest(http.MethodGet, url, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v", url, resp.StatusCode, err)
			}
			var want bytes.Buffer
			if _, err := persist.WriteChunked(&want, raw, off, chunk, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("chunk %d, offset %d: served %d bytes differ from WriteChunked's %d",
					chunk, off, len(got), want.Len())
			}
		}
	}
}

// TestSnapshotIgnoresAcceptEncoding: the leader serves one encoding. A
// request that refuses gzip, and one that says nothing of it, get the gzip
// request's bytes, and a follower bootstraps from them.
func TestSnapshotIgnoresAcceptEncoding(t *testing.T) {
	leader, _, ts := newLeader(t)
	growLake(t, leader, 10)
	get := func(accept string) []byte {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/repl/snapshot?chunked=1", nil)
		resp, err := acceptEncoding{accept}.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept-Encoding %q: status %d, %v", accept, resp.StatusCode, err)
		}
		return b
	}
	gz := get("gzip")
	for _, accept := range []string{"identity", ""} {
		got := get(accept)
		if !bytes.Equal(got, gz) {
			t.Errorf("Accept-Encoding %q: %d bytes differ from the gzip request's %d", accept, len(got), len(gz))
		}
		// A follower whose requests carry the same header bootstraps from
		// these bytes.
		f := newFollower(ts)
		f.Client = &http.Client{Transport: acceptEncoding{accept}}
		if err := f.Bootstrap(context.Background()); err != nil {
			t.Fatalf("Accept-Encoding %q: bootstrap: %v", accept, err)
		}
		if st := f.BootstrapStats(); f.Version() != leader.Version() || st.WireBytes != int64(len(gz)) {
			t.Errorf("Accept-Encoding %q: follower at version %d from %d wire bytes, want %d from %d",
				accept, f.Version(), st.WireBytes, leader.Version(), len(gz))
		}
	}
}

// acceptEncoding sends every request with its Accept-Encoding header, or
// with none when it is empty: its transport does not add the implicit gzip
// that http.DefaultTransport asks for.
type acceptEncoding struct{ header string }

var noImplicitGzip = &http.Transport{DisableCompression: true}

func (a acceptEncoding) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	if a.header != "" {
		req.Header.Set("Accept-Encoding", a.header)
	}
	return noImplicitGzip.RoundTrip(req)
}

func TestFollowerStatusEndpoint(t *testing.T) {
	leader, _, ts := newLeader(t)
	f := newFollower(ts)
	fts := httptest.NewServer(f)
	defer fts.Close()

	readStatus := func() Status {
		t.Helper()
		resp, err := http.Get(fts.URL + "/repl/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/repl/status = %d", resp.StatusCode)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Before bootstrap: the endpoint must answer (it is the router's probe)
	// even while every other path 503s.
	if st := readStatus(); st.State != "bootstrapping" || st.Version != 0 {
		t.Errorf("pre-bootstrap status = %+v, want bootstrapping at version 0", st)
	}
	resp, err := http.Get(fts.URL + "/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("pre-bootstrap /topk = %d, want 503", resp.StatusCode)
	}

	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if st := readStatus(); st.State != "serving" || st.Version != leader.Version() ||
		st.LeaderVersion != leader.Version() || st.Lag != 0 {
		t.Errorf("post-bootstrap status = %+v, want serving at leader version with zero lag", st)
	}

	// A poll that applies bursts refreshes both versions.
	addTable(t, leader, "status-1")
	want := addTable(t, leader, "status-2")
	if _, err := f.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	if st := readStatus(); st.Version != want || st.LeaderVersion != want || st.Lag != 0 {
		t.Errorf("post-poll status = %+v, want both versions at %d", st, want)
	}
}

// TestLeaderReachableTracksLastExchange: leader reachability reports the
// most recent exchange with the leader, not whether one ever succeeded. It
// turns false when the leader stops answering and true again once it is
// back, in /repl/status and in the replica's /metrics alike.
func TestLeaderReachableTracksLastExchange(t *testing.T) {
	leader, _, ts := newLeader(t)
	ctx := context.Background()
	f := newFollower(ts)
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f)
	defer fts.Close()
	check := func(when string, want bool) {
		t.Helper()
		var st, m map[string]any
		if err := json.Unmarshal([]byte(body(t, fts.URL+"/repl/status")), &st); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(body(t, fts.URL+"/metrics")), &m); err != nil {
			t.Fatal(err)
		}
		replication, _ := m["replication"].(map[string]any)
		if st["leader_reachable"] != want || replication["leader_reachable"] != want {
			t.Fatalf("%s: /repl/status leader_reachable = %v, /metrics replication = %v; want %v",
				when, st["leader_reachable"], replication, want)
		}
	}
	check("after a poll", true)

	addr := ts.Listener.Addr().String()
	ts.Close()
	if _, err := f.Poll(ctx); err == nil {
		t.Fatal("poll of a closed leader succeeded")
	}
	check("after a refused poll", false)

	// The leader comes back on the same address.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	back := &httptest.Server{Listener: l, Config: &http.Server{Handler: leader}}
	back.Start()
	defer back.Close()
	if _, err := f.Poll(ctx); err != nil {
		t.Fatal(err)
	}
	check("after the leader came back", true)
}

func TestChangesIdlePollCarriesVersion(t *testing.T) {
	leader, _, ts := newLeader(t)
	ver := strconv.FormatUint(leader.Version(), 10)
	resp, err := http.Get(ts.URL + "/repl/changes?from=" + ver)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up poll = %d, want 204", resp.StatusCode)
	}
	if got := resp.Header.Get(VersionHeader); got != ver {
		t.Errorf("204 version header = %q, want %s — followers derive lag from it", got, ver)
	}
}

// TestChangesFramesCarryLastVersion: a change-feed response carrying frames
// is stamped with its last frame's version, not the version the request
// started from.
func TestChangesFramesCarryLastVersion(t *testing.T) {
	leader, _, ts := newLeader(t)
	from := strconv.FormatUint(leader.Version(), 10)
	addTable(t, leader, "feed-1")
	last := addTable(t, leader, "feed-2")
	resp, err := http.Get(ts.URL + "/repl/changes?from=" + from)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll behind two bursts = %d, want 200", resp.StatusCode)
	}
	if got, want := resp.Header.Get(VersionHeader), strconv.FormatUint(last, 10); got != want {
		t.Errorf("frames response %s = %q, want the last frame's %s", VersionHeader, got, want)
	}
}

func TestBackoffDelay(t *testing.T) {
	base, max := 100*time.Millisecond, maxRetryDelay
	prevHigh := time.Duration(0)
	for fail := 1; fail <= 10; fail++ {
		ideal := min(base<<(fail-1), max)
		low := backoffDelay(base, fail, 0)
		high := backoffDelay(base, fail, 0.999999)
		if low != ideal-ideal/4 {
			t.Errorf("fail %d rnd 0: got %v, want %v", fail, low, ideal-ideal/4)
		}
		if high < ideal || high > ideal+ideal/4 {
			t.Errorf("fail %d rnd ~1: got %v, want within [%v, %v]", fail, high, ideal, ideal+ideal/4)
		}
		if high < prevHigh {
			t.Errorf("fail %d: backoff shrank (%v after %v)", fail, high, prevHigh)
		}
		prevHigh = high
	}
	// Deep failure counts must pin at the cap, jitter aside.
	if d := backoffDelay(base, 1000, 0.5); d < max-max/4 || d > max+max/4 {
		t.Errorf("deep failure backoff = %v, want about %v", d, max)
	}
	// A zero base is the package's retryDelay.
	if d := backoffDelay(0, 1, 0.5); d != retryDelay {
		t.Errorf("default base backoff = %v, want 1s", d)
	}
}

// fakeSnapshotLeader answers every chunked snapshot request with the given
// stream and headers, as a leader at version would: a request with an offset
// gets an empty body. It counts the requests.
type fakeSnapshotLeader struct {
	version  uint64
	size     int // SnapshotSizeHeader
	wire     []byte
	requests atomic.Int32
}

func (fk *fakeSnapshotLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fk.requests.Add(1)
	w.Header().Set(VersionHeader, strconv.FormatUint(fk.version, 10))
	w.Header().Set(SnapshotSizeHeader, strconv.Itoa(fk.size))
	w.Header().Set(SnapshotChunkedHeader, "1")
	if r.URL.Query().Get("offset") == "" {
		w.Write(fk.wire) //nolint:errcheck // test fake
	}
}

// TestFetchBufferIsExact: a bootstrap inflates into one buffer whose cap is
// its len, the sum of the frames' raw lengths, and never sizes anything from
// the size header: a stream whose header claims 64 MiB more allocates no
// more than the truthful one (it fails, having nothing left to resume).
func TestFetchBufferIsExact(t *testing.T) {
	leader, ld, _ := newLeaderOver(t, datagen.NewSB(1).Lake, domainnet.Config{Measure: domainnet.DegreeBaseline})
	raw, version, cs, err := ld.snapshot(persist.DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The leader's first warm allocates too: let it finish before counting.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if ws := leader.WarmStats(); ws.Completed > 0 && ws.Started == ws.Completed+ws.Cancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the leader's warm never went idle: %+v", leader.WarmStats())
		}
	}
	fetch := func(lie int) ([]byte, uint64, error) {
		t.Helper()
		fk := &fakeSnapshotLeader{version: version, size: len(raw) + lie, wire: cs.Wire}
		ts := httptest.NewServer(fk)
		defer ts.Close()
		f := &Follower{Leader: ts.URL}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		buf, err := f.fetch(context.Background())
		runtime.ReadMemStats(&after)
		return buf, after.TotalAlloc - before.TotalAlloc, err
	}
	buf, exact, err := fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, raw) || cap(buf) != len(buf) {
		t.Fatalf("fetched %d bytes with cap %d, want the leader's %d bytes exactly", len(buf), cap(buf), len(raw))
	}
	buf, lying, err := fetch(64 << 20)
	if err == nil || buf != nil {
		t.Fatalf("a stream short of its size header fetched %d bytes, err %v", len(buf), err)
	}
	if lying > exact {
		t.Errorf("a size header 64 MiB too large cost %d allocated bytes, the truthful one %d", lying, exact)
	}
	t.Logf("fetch allocated %d bytes for a %d-byte snapshot (%d with a lying size header)", exact, len(raw), lying)
}

// frameAt returns the k-th frame of a cached stream: its flag, raw length
// and payload.
func frameAt(cs *persist.ChunkStream, k int) (byte, int, []byte) {
	f := cs.Wire[cs.Starts[k]:cs.Starts[k+1]]
	return f[0], int(binary.LittleEndian.Uint32(f[1:5])), f[9 : len(f)-4]
}

// encodeFrame builds one chunk frame with a valid CRC over payload.
func encodeFrame(flag byte, rawLen int, payload []byte) []byte {
	b := []byte{flag}
	b = binary.LittleEndian.AppendUint32(b, uint32(rawLen))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestBootstrapResumesAtLastWholeFrame: when the k-th frame of a stream is
// torn or fails its CRC, the bootstrap keeps exactly frames 0..k-1 and
// resumes at their raw offset, then installs the leader's state.
func TestBootstrapResumesAtLastWholeFrame(t *testing.T) {
	leader, ld, ts := newLeader(t)
	const chunk = 512
	ld.chunkBytes = chunk
	growLake(t, leader, 20)
	raw, version, cs, err := ld.snapshot(chunk)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cs.Starts) - 1
	if n < 8 {
		t.Fatalf("snapshot framed into %d chunks, want several", n)
	}
	for _, k := range []int{0, 1, n / 2, n - 1} {
		for _, damage := range []string{"torn", "crc"} {
			t.Run(fmt.Sprintf("frame %d %s", k, damage), func(t *testing.T) {
				first := slices.Clone(cs.Wire)
				if damage == "torn" {
					first = first[:(cs.Starts[k]+cs.Starts[k+1])/2]
				} else {
					first[cs.Starts[k+1]-1] ^= 0x40 // the frame's CRC trailer
				}
				var mu sync.Mutex
				var urls []string
				inner := tsHandler(ts)
				proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					mu.Lock()
					urls = append(urls, r.URL.String())
					fresh := len(urls) == 1
					mu.Unlock()
					if !fresh {
						inner.ServeHTTP(w, r)
						return
					}
					w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
					w.Header().Set(SnapshotSizeHeader, strconv.Itoa(len(raw)))
					w.Header().Set(SnapshotChunkedHeader, "1")
					w.Write(first) //nolint:errcheck // test fake
				}))
				defer proxy.Close()
				f := newFollower(proxy)
				if err := f.Bootstrap(context.Background()); err != nil {
					t.Fatal(err)
				}
				if len(urls) != 2 {
					t.Fatalf("bootstrap made %d snapshot requests, want 2: %q", len(urls), urls)
				}
				resumed := strings.Contains(urls[1], fmt.Sprintf("offset=%d&version=%d", k*chunk, version))
				if k == 0 {
					resumed = !strings.Contains(urls[1], "offset=")
				}
				if !resumed {
					t.Errorf("re-request %q does not resume at raw offset %d", urls[1], k*chunk)
				}
				if st := f.BootstrapStats(); st.Resumes != 1 || st.RawBytes != int64(len(raw)) ||
					st.WireBytes != int64(len(cs.Wire)) {
					t.Errorf("bootstrap stats %+v, want 1 resume, %d raw and %d wire bytes", st, len(raw), len(cs.Wire))
				}
				var got []byte
				if err := f.Server().Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
					got = persist.Marshal(l, g)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, raw) {
					t.Error("the resumed replica does not encode to the leader's snapshot")
				}
			})
		}
	}
}

// TestBootstrapFailsOnFrameThatWillNotInflate: a frame that passes its CRC
// but does not inflate, or inflates past its rawLen, fails the bootstrap at
// once — the leader would serve the same bytes again — and installs nothing.
func TestBootstrapFailsOnFrameThatWillNotInflate(t *testing.T) {
	leader, ld, _ := newLeader(t)
	const chunk = 512
	ld.chunkBytes = chunk
	growLake(t, leader, 20)
	raw, version, cs, err := ld.snapshot(chunk)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cs.Starts) - 1
	for _, k := range []int{0, n / 2, n - 2} {
		flag, rawLen, payload := frameAt(cs, k)
		if flag != 1 {
			t.Fatalf("frame %d is stored; want a gzip frame to damage", k)
		}
		garbled := slices.Clone(payload)
		garbled[len(garbled)/2] ^= 0xff
		for _, c := range []struct {
			name  string
			frame []byte
			size  int
		}{
			{"does not inflate", encodeFrame(flag, rawLen, garbled), len(raw)},
			{"inflates past rawLen", encodeFrame(flag, rawLen-1, payload), len(raw) - 1},
		} {
			t.Run(fmt.Sprintf("frame %d %s", k, c.name), func(t *testing.T) {
				wire := slices.Concat(cs.Wire[:cs.Starts[k]], c.frame, cs.Wire[cs.Starts[k+1]:])
				fk := &fakeSnapshotLeader{version: version, size: c.size, wire: wire}
				fts := httptest.NewServer(fk)
				defer fts.Close()
				f := newFollower(fts)
				if err := f.Bootstrap(context.Background()); err == nil {
					t.Fatal("a frame that will not inflate bootstrapped cleanly")
				}
				if f.Server() != nil || f.Version() != 0 {
					t.Errorf("a failed inflate installed a replica at version %d", f.Version())
				}
				if got := fk.requests.Load(); got != 1 {
					t.Errorf("a failed inflate made %d snapshot requests, want 1 (no resume)", got)
				}
			})
		}
	}
}

// TestLeaderStatsCountEncodes: the leader times one Marshal and one framing
// per version.
func TestLeaderStatsCountEncodes(t *testing.T) {
	leader, ld, ts := newLeader(t)
	for range 2 {
		if err := newFollower(ts).Bootstrap(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	addTable(t, leader, "encode-again")
	if err := newFollower(ts).Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ld.snapshot(persist.DefaultChunkBytes); err != nil {
		t.Fatal(err)
	}
	st := ld.Stats()
	if st.Encodes != 2 || st.Marshal.Count != 2 || st.Frame.Count != 2 || st.Marshal.Sum <= 0 || st.Frame.Sum <= 0 {
		t.Errorf("leader stats %+v, want 2 timed encodes and 2 timed framings", st)
	}
}
