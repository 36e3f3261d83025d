package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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
// fewer bytes than the codec it frames, and on the SB lake at least 2x fewer.
func TestChunkedBootstrapCompressesWire(t *testing.T) {
	for _, c := range []struct {
		name      string
		lake      *lake.Lake
		cfg       domainnet.Config
		minShrink float64
	}{
		{"figure1", datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}, 1},
		{"sb", datagen.NewSB(1).Lake, domainnet.Config{Measure: domainnet.DegreeBaseline}, 2},
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
			if st.Resumes != 0 || st.Restarts != 0 {
				t.Errorf("clean bootstrap recorded %d resumes, %d restarts", st.Resumes, st.Restarts)
			}
			t.Logf("bootstrap moved %d wire bytes for %d raw bytes (%.1fx)", st.WireBytes, st.RawBytes, shrink)
		})
	}
}

func TestBootstrapResumesTornStream(t *testing.T) {
	leader, ld, ts := newLeader(t)
	ld.SnapshotChunkBytes = 512
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
	ld.SnapshotChunkBytes = 512
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
	_, ld, ts := newLeader(t)
	ld.SnapshotChunkBytes = 512
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
}

// TestBootstrapFromLegacyLeader: a leader that predates the chunk protocol
// ignores ?chunked=1 and answers with the raw codec stream; the follower
// decodes that answer as-is, and every byte on the wire is a codec byte.
func TestBootstrapFromLegacyLeader(t *testing.T) {
	leader, _, _ := newLeader(t)
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("chunked")
		r.URL.RawQuery = q.Encode()
		leader.ServeHTTP(w, r)
	}))
	t.Cleanup(legacy.Close)
	f := newFollower(legacy)
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Version() != leader.Version() {
		t.Fatalf("legacy bootstrap version %d, leader at %d", f.Version(), leader.Version())
	}
	st := f.BootstrapStats()
	if st.WireBytes == 0 || st.WireBytes != st.RawBytes {
		t.Errorf("raw answer should move exactly the codec bytes, got wire %d raw %d",
			st.WireBytes, st.RawBytes)
	}
}

func TestSnapshotEndpointProtocol(t *testing.T) {
	leader, _, ts := newLeader(t)
	get := func(path, acceptEnc string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if acceptEnc != "" {
			req.Header.Set("Accept-Encoding", acceptEnc)
		}
		resp, err := http.DefaultTransport.RoundTrip(req) // no implicit gzip header
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	legacy := get("/repl/snapshot", "")
	if legacy.StatusCode != http.StatusOK || legacy.Header.Get(SnapshotChunkedHeader) != "" {
		t.Errorf("plain snapshot = %d with chunked header %q, want raw 200",
			legacy.StatusCode, legacy.Header.Get(SnapshotChunkedHeader))
	}
	if legacy.ContentLength <= 0 {
		t.Errorf("plain snapshot lost its Content-Length (%d)", legacy.ContentLength)
	}
	if got, want := legacy.Header.Get(VersionHeader), strconv.FormatUint(leader.Version(), 10); got != want {
		t.Errorf("plain snapshot %s = %q, want %s", VersionHeader, got, want)
	}

	chunked := get("/repl/snapshot?chunked=1", "gzip")
	if chunked.Header.Get(SnapshotChunkedHeader) == "" || chunked.Header.Get(SnapshotEncodingHeader) != "gzip" {
		t.Errorf("chunked gzip request got headers chunked=%q encoding=%q",
			chunked.Header.Get(SnapshotChunkedHeader), chunked.Header.Get(SnapshotEncodingHeader))
	}
	if chunked.Header.Get(SnapshotSizeHeader) == "" || chunked.Header.Get(VersionHeader) == "" {
		t.Error("chunked response is missing size or version headers")
	}

	// The negotiated encoding keys the leader's chunk-stream cache, so every
	// spelling must land on the right one.
	for _, c := range []struct{ accept, want string }{
		{"identity", "identity"},
		{"gzip;q=0", "identity"},
		{"gzip;q=0, *", "identity"}, // an explicit refusal beats the wildcard
		{"*", "gzip"},
		{"*;q=0", "identity"},
		{"deflate, *;q=0", "identity"},
		{"deflate, *", "gzip"},
		{"GZIP", "gzip"}, // coding names are case-insensitive
		{"x-gzip", "gzip"},
		{"X-Gzip;Q=0", "identity"},
		{"x-gzip, gzip;q=0", "gzip"}, // either alias accepting is enough
		{"br;q=1.0, gzip;q=0.5", "gzip"},
		{"*;q=0, gzip", "gzip"},
	} {
		resp := get("/repl/snapshot?chunked=1", c.accept)
		if got := resp.Header.Get(SnapshotEncodingHeader); got != c.want {
			t.Errorf("Accept-Encoding %q negotiated %q, want %q", c.accept, got, c.want)
		}
	}

	if resp := get("/repl/snapshot?chunked=1&offset=512", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("offset without version = %d, want 400", resp.StatusCode)
	}
	if resp := get("/repl/snapshot?chunked=1&offset=512&version=99999", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("offset at a stale version = %d, want 409", resp.StatusCode)
	}
	cur := chunked.Header.Get(VersionHeader)
	if resp := get("/repl/snapshot?chunked=1&offset=7&version="+cur, ""); resp.StatusCode != http.StatusConflict {
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
	ld.SnapshotChunkBytes = chunk
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

	// A storm of fresh gzip joiners, an identity joiner, a resume and a raw
	// request, all at one version. Every marshal or encode allocates a new
	// buffer, so one of each shows as every response sharing its buffer.
	const storm = 16
	resume := fmt.Sprintf("?chunked=1&offset=%d&version=%d", 2*chunk, leader.Version())
	gz := make([]*firstByteWriter, storm)
	var identity, resumed, raw *firstByteWriter
	var wg sync.WaitGroup
	for i := range gz {
		wg.Add(1)
		go func() { defer wg.Done(); gz[i] = get("?chunked=1", "gzip") }()
	}
	wg.Add(3)
	go func() { defer wg.Done(); identity = get("?chunked=1", "identity") }()
	go func() { defer wg.Done(); resumed = get(resume, "gzip") }()
	go func() { defer wg.Done(); raw = get("", "gzip") }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	enc := ld.snapEnc
	if enc[false] == nil || enc[true] == nil {
		t.Fatalf("storm left cached encodings identity=%v gzip=%v, want both", enc[false] != nil, enc[true] != nil)
	}
	for i, w := range gz {
		if w.first != &enc[true].Wire[0] {
			t.Errorf("gzip joiner %d was not served from the one cached gzip stream", i)
		}
	}
	if identity.first != &enc[false].Wire[0] {
		t.Error("identity joiner was not served from the cached identity stream")
	}
	if resumed.first != &enc[true].Wire[enc[true].Starts[2]] {
		t.Error("resume at chunk 2 was not served from the cached gzip stream at chunk 2's frame")
	}
	if raw.first != &ld.snapRaw[0] {
		t.Error("raw request was not served from the one cached marshal")
	}

	// One write: the next gzip request encodes exactly once more, and the
	// old version's encodings are gone.
	addTable(t, leader, "storm")
	first := get("?chunked=1", "gzip")
	if first.first == gz[0].first {
		t.Fatal("request after a write was served the previous version's stream")
	}
	if ld.snapEnc[false] != nil {
		t.Error("a new version kept the previous version's identity stream")
	}
	if again := get("?chunked=1", "gzip"); again.first != first.first {
		t.Error("second request at the new version encoded again")
	}
}

// TestSnapshotChunkedWireMatchesWriteChunked: the cached stream is served
// byte for byte as persist.WriteChunked frames it, from every chunk-aligned
// offset (the snapshot's end included) in both encodings.
func TestSnapshotChunkedWireMatchesWriteChunked(t *testing.T) {
	leader, ld, ts := newLeader(t)
	growLake(t, leader, 10)
	// 512-byte chunks, then one chunk spanning the whole snapshot so that
	// resuming exactly at its end is a chunk boundary. A write between the
	// two drops the cached streams.
	for i, chunkOf := range []func(int) int{
		func(int) int { return 512 },
		func(n int) int { return n },
	} {
		if i > 0 {
			addTable(t, leader, "rechunk")
		}
		raw := []byte(body(t, ts.URL+"/repl/snapshot"))
		chunk := chunkOf(len(raw))
		ld.SnapshotChunkBytes = chunk
		for _, compress := range []bool{false, true} {
			accept := "identity"
			if compress {
				accept = "gzip"
			}
			for off := 0; off <= len(raw); off += chunk {
				url := fmt.Sprintf("%s/repl/snapshot?chunked=1&offset=%d&version=%d", ts.URL, off, leader.Version())
				req, _ := http.NewRequest(http.MethodGet, url, nil)
				req.Header.Set("Accept-Encoding", accept)
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
				if _, err := persist.WriteChunked(&want, raw, off, chunk, compress); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("chunk %d, %s, offset %d: served %d bytes differ from WriteChunked's %d",
						chunk, accept, off, len(got), want.Len())
				}
			}
		}
	}
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
	base, max := 100*time.Millisecond, 2*time.Second
	prevHigh := time.Duration(0)
	for fail := 1; fail <= 8; fail++ {
		ideal := min(base<<(fail-1), max)
		low := backoffDelay(base, max, fail, 0)
		high := backoffDelay(base, max, fail, 0.999999)
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
	if d := backoffDelay(base, max, 1000, 0.5); d < max-max/4 || d > max+max/4 {
		t.Errorf("deep failure backoff = %v, want about %v", d, max)
	}
	// Zero-value config falls back to sane defaults.
	if d := backoffDelay(0, 0, 1, 0.5); d != time.Second {
		t.Errorf("default base backoff = %v, want 1s", d)
	}
}
