package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"domainnet/internal/table"
)

// TestReadRoutesCarryVersion pins the read contract from the outside: every
// GET route stamps the served snapshot's version in VersionHeader — on a 200,
// a 304 revalidation and a 400 alike — and /metrics reports that same
// version in its body, JSON or Prometheus.
func TestReadRoutesCarryVersion(t *testing.T) {
	s := newCacheServer()
	if _, err := s.Apply([]*table.Table{table.New("t").AddColumn("animal", "jaguar", "okapi")}, nil); err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatUint(s.Version(), 10)
	etag := getTopK(t, s, "/topk?k=3", nil).Header().Get("ETag")

	for _, tc := range []struct {
		target string
		inm    string // If-None-Match, when set
		code   int
	}{
		{"/topk?k=3", "", http.StatusOK},
		{"/topk?k=3", etag, http.StatusNotModified},
		{"/score?value=jaguar", "", http.StatusOK},
		{"/stats", "", http.StatusOK},
		{"/scorers", "", http.StatusOK},
		{"/debug/traces", "", http.StatusOK},
		{"/metrics", "", http.StatusOK},
		{"/metrics?format=prom", "", http.StatusOK},
		{"/topk?measure=pagerank", "", http.StatusBadRequest},
		{"/score?value=jaguar&measure=pagerank", "", http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		if tc.inm != "" {
			req.Header.Set("If-None-Match", tc.inm)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.target, rec.Code, tc.code)
		}
		if got := rec.Header().Get(VersionHeader); got != want {
			t.Errorf("GET %s (%d): %s = %q, want %s", tc.target, rec.Code, VersionHeader, got, want)
		}
		switch tc.target {
		case "/metrics":
			if got := decodeJSON(t, rec.Body)["version"]; got != float64(s.Version()) {
				t.Errorf("/metrics body version = %v, header %s", got, want)
			}
		case "/metrics?format=prom":
			if !strings.Contains(rec.Body.String(), "\ndomainnet_snapshot_version "+want+"\n") {
				t.Errorf("prom snapshot_version does not match header %s:\n%s", want, rec.Body)
			}
		}
	}
}
