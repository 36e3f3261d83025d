package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/table"
)

func newCacheServer() *Server {
	return New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.BetweennessExact,
		KeepSingletons: true,
	})
}

func getTopK(t *testing.T, s *Server, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestTopKCacheServesIdenticalBytes(t *testing.T) {
	s := newCacheServer()
	first := getTopK(t, s, "/topk?k=5", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first /topk = %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("/topk carries no ETag")
	}
	if v := first.Header().Get(VersionHeader); v == "" {
		t.Fatalf("/topk carries no %s header", VersionHeader)
	}
	// The second request is served from the cache; bytes and headers must be
	// indistinguishable from the encode path.
	second := getTopK(t, s, "/topk?k=5", nil)
	if second.Code != http.StatusOK || second.Body.String() != first.Body.String() {
		t.Fatalf("cached /topk differs:\nfirst:  %s\nsecond: %s", first.Body, second.Body)
	}
	if second.Header().Get("ETag") != etag {
		t.Errorf("cached ETag %q != first %q", second.Header().Get("ETag"), etag)
	}
}

func TestTopKConditionalRequest(t *testing.T) {
	s := newCacheServer()
	first := getTopK(t, s, "/topk?k=5", nil)
	etag := first.Header().Get("ETag")

	for _, inm := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		rec := getTopK(t, s, "/topk?k=5", map[string]string{"If-None-Match": inm})
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q = %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("304 for %q carried a %d-byte body", inm, rec.Body.Len())
		}
		if rec.Header().Get("ETag") != etag || rec.Header().Get(VersionHeader) == "" {
			t.Errorf("304 for %q lost its validator headers", inm)
		}
	}
	// A stale validator (different version, measure or k) must get the body.
	for _, inm := range []string{`"v999-bc-exact-k5"`, `"bogus"`} {
		rec := getTopK(t, s, "/topk?k=5", map[string]string{"If-None-Match": inm})
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Errorf("stale If-None-Match %q = %d with %d-byte body, want 200 with content",
				inm, rec.Code, rec.Body.Len())
		}
	}
}

func TestTopKETagVariesWithVersionMeasureK(t *testing.T) {
	s := newCacheServer()
	base := getTopK(t, s, "/topk?k=5", nil).Header().Get("ETag")
	if k10 := getTopK(t, s, "/topk?k=10", nil).Header().Get("ETag"); k10 == base {
		t.Error("k=5 and k=10 share an ETag")
	}
	if deg := getTopK(t, s, "/topk?k=5&measure=degree", nil).Header().Get("ETag"); deg == base {
		t.Error("bc-exact and degree share an ETag")
	}
	// A mutation bumps the version; the old validator must stop matching so
	// clients re-fetch the new ranking.
	if _, err := s.Apply([]*table.Table{table.New("t").AddColumn("animal", "jaguar", "okapi")}, nil); err != nil {
		t.Fatal(err)
	}
	rec := getTopK(t, s, "/topk?k=5", map[string]string{"If-None-Match": base})
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-mutation ETag still matches after a publish (got %d)", rec.Code)
	}
	if rec.Header().Get("ETag") == base {
		t.Error("ETag did not change across a version bump")
	}
}

func TestTopKQueryFallbackPath(t *testing.T) {
	s := newCacheServer()
	plain := getTopK(t, s, "/topk?k=5&measure=degree", nil)
	// %35 is an escaped '5': the fast parser must bow out and the fallback
	// must produce the same response as the plain spelling.
	escaped := getTopK(t, s, "/topk?k=%35&measure=degree", nil)
	if escaped.Code != http.StatusOK || escaped.Body.String() != plain.Body.String() {
		t.Fatalf("escaped query diverged (%d):\nplain:   %s\nescaped: %s",
			escaped.Code, plain.Body, escaped.Body)
	}
	if rec := getTopK(t, s, "/topk?k=-1", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("negative k = %d, want 400", rec.Code)
	}
	if rec := getTopK(t, s, "/topk?measure=pagerank", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown measure = %d, want 400", rec.Code)
	}
}

func TestTopKCacheCapDegradesGracefully(t *testing.T) {
	s := newCacheServer()
	want := getTopK(t, s, "/topk?k=7&measure=degree", nil).Body.String()
	// Spray far more distinct keys than the cache holds; every response must
	// stay correct (the overflow keys just pay the encode each time).
	for i := 0; i < maxTopKEntries+20; i++ {
		rec := getTopK(t, s, fmt.Sprintf("/topk?k=%d&measure=degree", 1000+i), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("overflow key %d = %d", i, rec.Code)
		}
	}
	if got := getTopK(t, s, "/topk?k=7&measure=degree", nil).Body.String(); got != want {
		t.Fatalf("response changed after cache overflow:\nbefore: %s\nafter:  %s", want, got)
	}
}

func TestTopKCacheCountsWarmHits(t *testing.T) {
	s := newCacheServer()
	getTopK(t, s, "/topk?k=5", nil) // cold: computes and fills the cache
	before := s.WarmStats()
	getTopK(t, s, "/topk?k=5", nil)
	getTopK(t, s, "/topk?k=5", map[string]string{"If-None-Match": "*"})
	after := s.WarmStats()
	if after.Hits != before.Hits+2 || after.Misses != before.Misses {
		t.Errorf("cached reads counted hits %d→%d misses %d→%d, want +2 hits, +0 misses",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// discardWriter is the leanest possible ResponseWriter: the allocation
// budget below must measure the handler, not the recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

func TestTopKCachedPathAllocBudget(t *testing.T) {
	s := newCacheServer()
	// AllocsPerRun counts every goroutine's allocations: let the initial
	// warm finish first.
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })
	warm := getTopK(t, s, "/topk?k=5&measure=degree", nil)
	etag := warm.Header().Get("ETag")
	req := httptest.NewRequest(http.MethodGet, "/topk?k=5&measure=degree", nil)
	req.Header.Set("If-None-Match", etag)
	w := &discardWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		s.ServeHTTP(w, req)
	})
	if w.code != http.StatusNotModified {
		t.Fatalf("cached conditional read = %d, want 304", w.code)
	}
	// The acceptance bar for the cached hot path: at most 5 allocations per
	// request (status-capturing writer + two header values is the floor).
	if allocs > 5 {
		t.Errorf("cached 304 path costs %.0f allocs/op, budget is 5", allocs)
	}

	// The 200 path (no validator) must stay within budget too.
	req200 := httptest.NewRequest(http.MethodGet, "/topk?k=5&measure=degree", nil)
	w200 := &discardWriter{h: make(http.Header)}
	allocs200 := testing.AllocsPerRun(200, func() {
		s.ServeHTTP(w200, req200)
	})
	if w200.code != http.StatusOK {
		t.Fatalf("cached read = %d, want 200", w200.code)
	}
	if allocs200 > 5 {
		t.Errorf("cached 200 path costs %.0f allocs/op, budget is 5", allocs200)
	}
}
