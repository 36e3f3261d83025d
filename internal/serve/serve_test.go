package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/persist"
	"domainnet/internal/table"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.BetweennessExact,
		KeepSingletons: true,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d (%s)", url, resp.StatusCode, wantCode, body)
	}
	return decodeJSON(t, resp.Body)
}

func decodeJSON(t *testing.T, r io.Reader) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func do(t *testing.T, method, url string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestReadEndpoints(t *testing.T) {
	ts := newTestServer(t)

	top := getJSON(t, ts.URL+"/topk?k=2", http.StatusOK)
	results := top["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("topk results = %d, want 2", len(results))
	}
	if first := results[0].(map[string]any)["value"]; first != "JAGUAR" {
		t.Errorf("top candidate = %v, want JAGUAR (Figure 1)", first)
	}
	if top["version"].(float64) != 4 {
		t.Errorf("version = %v, want 4 (four tables added)", top["version"])
	}

	// Score lookups normalize the queried value.
	score := getJSON(t, ts.URL+"/score?value=jaguar", http.StatusOK)
	if score["found"] != true || score["value"] != "JAGUAR" {
		t.Errorf("score response = %v", score)
	}
	missing := getJSON(t, ts.URL+"/score?value=zzz-not-here", http.StatusOK)
	if missing["found"] != false {
		t.Error("absent value reported found")
	}

	// The served stats are assembled without a lake-wide rescan; they must
	// still equal lake.Stats() of Figure 1 (tables=4 attrs=12 values=37
	// cells=45 — 45 non-empty cells, not the 43 distinct per-column values:
	// T2 repeats Panda and "2").
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	lk := stats["lake"].(map[string]any)
	for field, want := range map[string]float64{
		"tables": 4, "attributes": 12, "values": 37, "cells": 45,
	} {
		if got := lk[field].(float64); got != want {
			t.Errorf("stats.lake.%s = %v, want %v", field, got, want)
		}
	}

	scorers := getJSON(t, ts.URL+"/scorers", http.StatusOK)
	if len(scorers["scorers"].([]any)) < 7 {
		t.Errorf("scorers = %v", scorers)
	}

	// Per-request measure override and error paths.
	getJSON(t, ts.URL+"/topk?measure=degree", http.StatusOK)
	getJSON(t, ts.URL+"/topk?measure=nope", http.StatusBadRequest)
	getJSON(t, ts.URL+"/topk?k=-1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/score", http.StatusBadRequest)
}

func TestWriteEndpointsChangeRanking(t *testing.T) {
	ts := newTestServer(t)

	// Removing the car and company tables (Definition 1) demotes JAGUAR.
	for _, name := range []string{"T3", "T4"} {
		resp := do(t, http.MethodDelete, ts.URL+"/tables/"+name, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s = %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	top := getJSON(t, ts.URL+"/topk?k=1", http.StatusOK)
	if top["version"].(float64) != 6 {
		t.Errorf("version after two deletes = %v, want 6", top["version"])
	}

	// Re-adding a car table restores the second meaning.
	csv := "model,make\nXE,Jaguar\nPrius,Toyota\n500,Fiat\n"
	resp := do(t, http.MethodPost, ts.URL+"/tables/T3b", strings.NewReader(csv))
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST = %d (%s)", resp.StatusCode, body)
	}
	resp.Body.Close()
	top = getJSON(t, ts.URL+"/topk?k=1", http.StatusOK)
	first := top["results"].([]any)[0].(map[string]any)["value"]
	if first != "JAGUAR" {
		t.Errorf("top after re-add = %v, want JAGUAR", first)
	}

	// Errors: duplicate name, missing table, malformed CSV.
	resp = do(t, http.MethodPost, ts.URL+"/tables/T1", strings.NewReader(csv))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate POST = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do(t, http.MethodDelete, ts.URL+"/tables/NOPE", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing DELETE = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do(t, http.MethodPost, ts.URL+"/tables/empty", strings.NewReader(""))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty CSV POST = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// multipartBatch assembles a multipart/form-data body of CSV file parts.
func multipartBatch(t *testing.T, csvs map[string]string) (string, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for name, csv := range csvs {
		fw, err := mw.CreateFormFile(name, name+".csv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write([]byte(csv)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), &buf
}

func TestBatchIngestPublishesOnce(t *testing.T) {
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.BetweennessExact,
		KeepSingletons: true,
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	before := s.Publishes()
	contentType, body := multipartBatch(t, map[string]string{
		"B1": "animal,city\nJaguar,Memphis\nOcelot,Lima\n",
		"B2": "make,country\nJaguar,UK\nSaab,Sweden\n",
		"B3": "team,sport\nPuma,Soccer\nJaguar,Football\n",
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/tables", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch POST = %d (%s)", resp.StatusCode, raw)
	}
	out := decodeJSON(t, resp.Body)
	if out["count"].(float64) != 3 {
		t.Errorf("count = %v, want 3", out["count"])
	}
	// The acceptance criterion: N tables, exactly ONE publish.
	if got := s.Publishes() - before; got != 1 {
		t.Errorf("batch of 3 tables cost %d publishes, want exactly 1", got)
	}
	if out["version"].(float64) != 7 { // 4 initial adds + 3 batch adds
		t.Errorf("version = %v, want 7", out["version"])
	}
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if got := stats["lake"].(map[string]any)["tables"].(float64); got != 7 {
		t.Errorf("tables after batch = %v, want 7", got)
	}

	// All-or-nothing: a batch naming an existing table mutates nothing.
	contentType, body = multipartBatch(t, map[string]string{
		"OK": "a,b\nx,y\nz,w\n",
		"T1": "a,b\nx,y\nz,w\n",
	})
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/tables", body)
	req.Header.Set("Content-Type", contentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting batch = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	score := getJSON(t, ts.URL+"/score?value=x", http.StatusOK)
	if score["found"] != false {
		t.Error("failed batch leaked table OK into the lake")
	}

	// Non-multipart bodies are rejected with guidance.
	resp = do(t, http.MethodPost, ts.URL+"/tables", strings.NewReader("a,b\n1,2\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("raw-CSV batch POST = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestOversizedUploadReturns413 sends a body just past the 64 MiB cap: the
// MaxBytesReader limit must surface as 413 Request Entity Too Large, not be
// misreported as a malformed-CSV 400.
func TestOversizedUploadReturns413(t *testing.T) {
	ts := newTestServer(t)

	// A syntactically fine CSV that simply never ends before the cap.
	row := []byte("aaaa,bbbb\n")
	body := bytes.Repeat(row, (maxUpload+(1<<20))/len(row))
	resp := do(t, http.MethodPost, ts.URL+"/tables/huge", bytes.NewReader(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	// The rejected upload must not have touched the lake.
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if got := stats["lake"].(map[string]any)["tables"].(float64); got != 4 {
		t.Errorf("tables after rejected upload = %v, want 4", got)
	}
}

// TestOversizedBatchUploadReturns413 streams a multipart batch whose second
// part runs past the 64 MiB cap: ReadCSV reads each part whole, and the
// MaxBytesReader error it wraps must still surface as 413, with the batch's
// first part not ingested either.
func TestOversizedBatchUploadReturns413(t *testing.T) {
	ts := newTestServer(t)

	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		write := func(field, body string, repeat int) error {
			fw, err := mw.CreateFormFile(field, field+".csv")
			for ; err == nil && repeat > 0; repeat-- {
				_, err = io.WriteString(fw, body)
			}
			return err
		}
		err := write("small", "a,b\nsmallval,x\n", 1)
		if err == nil {
			err = write("huge", strings.Repeat("aaaa,bbbb\n", 1<<10), maxUpload/(10<<10)+100)
		}
		if err == nil {
			err = mw.Close()
		}
		pw.CloseWithError(err) // ends the body, or unblocks on the server hanging up
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/tables", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch POST = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	stats := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if got := stats["lake"].(map[string]any)["tables"].(float64); got != 4 {
		t.Errorf("tables after rejected batch = %v, want 4", got)
	}
	if score := getJSON(t, ts.URL+"/score?value=smallval", http.StatusOK); score["found"] != false {
		t.Error("rejected batch leaked its first part into the lake")
	}
}

// TestBatchPartWithoutNameRejected covers the multipart part that carries
// neither a filename nor a form field name: instead of building a table
// named "" and failing downstream with an unhelpful message, the handler
// must reject the batch naming the offending part's position.
func TestBatchPartWithoutNameRejected(t *testing.T) {
	ts := newTestServer(t)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("OK", "OK.csv")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write([]byte("a,b\nx,y\n")) //nolint:errcheck
	// A part with no Content-Disposition name at all.
	anon, err := mw.CreatePart(nil)
	if err != nil {
		t.Fatal(err)
	}
	anon.Write([]byte("c,d\nu,v\n")) //nolint:errcheck
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/tables", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unnamed-part batch = %d, want 400", resp.StatusCode)
	}
	out := decodeJSON(t, resp.Body)
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "part 2") {
		t.Errorf("error %q does not name the offending part index", msg)
	}
	// All-or-nothing: the named part must not have been ingested either.
	score := getJSON(t, ts.URL+"/score?value=x", http.StatusOK)
	if score["found"] != false {
		t.Error("rejected batch leaked table OK into the lake")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.BetweennessExact,
		KeepSingletons: true,
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })

	getJSON(t, ts.URL+"/topk?k=2", http.StatusOK)             // hit: the warmer computed it
	getJSON(t, ts.URL+"/topk?k=2", http.StatusOK)             // hit: response cache
	getJSON(t, ts.URL+"/topk?k=2&measure=lcc", http.StatusOK) // miss: nobody warms lcc
	getJSON(t, ts.URL+"/score", http.StatusBadRequest)        // counted error
	getJSON(t, ts.URL+"/topk?k=-1", http.StatusBadRequest)

	m := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if m["version"].(float64) != 4 || m["publishes"].(float64) != 1 {
		t.Errorf("metrics version/publishes = %v/%v, want 4/1", m["version"], m["publishes"])
	}
	eps := m["endpoints"].(map[string]any)
	topk := eps["topk"].(map[string]any)
	if topk["count"].(float64) != 4 || topk["errors"].(float64) != 1 {
		t.Errorf("topk count/errors = %v/%v, want 4/1", topk["count"], topk["errors"])
	}
	if topk["max_ns"].(float64) <= 0 || topk["total_ns"].(float64) < topk["max_ns"].(float64) {
		t.Errorf("topk latency accounting implausible: %v", topk)
	}
	score := eps["score"].(map[string]any)
	if score["count"].(float64) != 1 || score["errors"].(float64) != 1 {
		t.Errorf("score count/errors = %v/%v, want 1/1", score["count"], score["errors"])
	}
	warm := m["warm"].(map[string]any)
	// No WarmMeasures: the default measure is warmed all the same. The
	// k=-1 request errors before touching a detector.
	if warm["started"].(float64) != 1 || warm["completed"].(float64) != 1 {
		t.Errorf("warm started/completed = %v/%v, want 1/1", warm["started"], warm["completed"])
	}
	if warm["misses"].(float64) != 1 || warm["hits"].(float64) != 2 {
		t.Errorf("warm hits/misses = %v/%v, want 2/1", warm["hits"], warm["misses"])
	}
	if ms := warm["measures"].([]any); len(ms) != 1 || ms[0] != domainnet.BetweennessExact.String() {
		t.Errorf("warm.measures = %v, want [%s]", ms, domainnet.BetweennessExact)
	}
}

// TestWarmStartServesWithoutFullBuild: a server constructed from a loaded
// snapshot adopts the loaded graph itself — no second build — and answers
// /topk, /score and /stats identically to a cold-built one; the first write
// after the warm start takes the incremental warm path; and a graph built
// with another KeepSingletons setting is refused.
func TestWarmStartServesWithoutFullBuild(t *testing.T) {
	// Singleton filter on: the stray row below stays out of the graph.
	cfg := domainnet.Config{Measure: domainnet.BetweennessExact}
	// w1 is table W1, plus the stray (animal, city) row when one is given.
	w1 := func(stray ...string) *table.Table {
		animals, cities := []string{"Jaguar", "Puma"}, []string{"Memphis", "Lima"}
		if len(stray) == 2 {
			animals, cities = append(animals, stray[0]), append(cities, stray[1])
		}
		return table.New("W1").AddColumn("animal", animals...).AddColumn("city", cities...)
	}
	mkLake := func() *lake.Lake {
		l := datagen.Figure1Lake()
		l.MustAdd(w1())
		return l
	}

	cold := httptest.NewServer(New(mkLake(), cfg))
	t.Cleanup(cold.Close)

	// Persist the lake and graph, as domainnetd's checkpoint does.
	src := mkLake()
	path := filepath.Join(t.TempDir(), "lake.snapshot")
	if err := persist.Save(path, src, bipartite.FromLake(src, bipartite.Options{})); err != nil {
		t.Fatal(err)
	}

	sn, err := persist.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithOptions(sn.Lake, cfg, Options{Graph: sn.Graph})
	t.Cleanup(s.Close)
	if s.snap.Load().graph != sn.Graph {
		t.Fatal("the warm-start graph was not adopted: the server built its own")
	}
	if rs := s.RebuildStats(); rs.Unchanged != 1 || rs.Full != 0 || rs.Incremental != 0 {
		t.Errorf("the seeded first publish counted as %+v, want one unchanged rebuild", rs)
	}
	warm := httptest.NewServer(s)
	t.Cleanup(warm.Close)

	for _, path := range []string{"/topk?k=10", "/topk?k=5&measure=lcc", "/score?value=jaguar", "/stats"} {
		want := getJSON(t, cold.URL+path, http.StatusOK)
		got := getJSON(t, warm.URL+path, http.StatusOK)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GET %s:\nwarm = %v\ncold = %v", path, got, want)
		}
	}

	// The first write after the warm start is priced by its delta: replacing
	// W1 with itself plus a row of values found nowhere else leaves the
	// graph's structure clean, so the warm carries every score.
	waitWarm(t, s, "initial warm", func(w WarmStats) bool { return w.Completed == 1 })
	if _, err := s.Apply([]*table.Table{w1("StrayBeast", "StrayTown")}, []string{"W1"}); err != nil {
		t.Fatal(err)
	}
	waitWarm(t, s, "post-warm-start warm", func(w WarmStats) bool { return w.Completed == 2 })
	if w := s.WarmStats(); w.Incremental != 1 {
		t.Errorf("post-warm-start write warmed incremental=%d (full=%d), want 1", w.Incremental, w.FullFallback)
	}

	// A graph built with mismatched KeepSingletons is refused: the server
	// cold-builds rather than serving wrong node sets.
	mismatched := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}
	sn2, err := persist.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewWithOptions(sn2.Lake, mismatched, Options{Graph: sn2.Graph})
	t.Cleanup(s2.Close)
	if s2.snap.Load().graph == sn2.Graph {
		t.Error("KeepSingletons-mismatched warm-start graph was not rejected")
	}
	if rs := s2.RebuildStats(); rs.Full != 1 || rs.Unchanged != 0 {
		t.Errorf("the mismatched seed's first publish counted as %+v, want one full build", rs)
	}
}

// checkpointServes checks the torn-checkpoint regression once an Apply that
// returned version v is back: the published and lake versions are both v,
// and a checkpoint persists that pair and loads with its graph.
func checkpointServes(t *testing.T, s *Server, v uint64) {
	t.Helper()
	if pub, lk := s.Version(), s.lake.Version(); pub != v || lk != v {
		t.Fatalf("after Apply returned %d: published version %d, lake version %d", v, pub, lk)
	}
	path := filepath.Join(t.TempDir(), "lake.snapshot")
	if err := s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
		return persist.Save(path, l, g)
	}); err != nil {
		t.Fatal(err)
	}
	sn, err := persist.Load(path)
	if err != nil {
		t.Fatalf("checkpoint after Apply is unloadable: %v", err)
	}
	if sn.Graph == nil || sn.Lake.Version() != v {
		t.Errorf("loaded snapshot = graph %v, version %d; want a graph at version %d",
			sn.Graph != nil, sn.Lake.Version(), v)
	}
}

// TestCheckpointAfterApply is the torn-checkpoint regression: a checkpoint
// must never persist a lake/graph pair at different versions, a snapshot
// persist.Load rejects. Apply publishes before it returns, so a checkpoint
// taken then writes the version Apply returned.
func TestCheckpointAfterApply(t *testing.T) {
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.DegreeBaseline,
		KeepSingletons: true,
	})
	t.Cleanup(s.Close)
	tb := table.New("torn").AddColumn("animal", "Jaguar", "Puma")
	v, err := s.Apply([]*table.Table{tb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkpointServes(t, s, v)
}

// TestCheckpointParkedDuringWrite parks a Checkpoint callback mid-marshal
// while a mutation is acknowledged and published. The write must not wait
// for the checkpoint, and the parked checkpoint must still write the version
// it started on.
func TestCheckpointParkedDuringWrite(t *testing.T) {
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.DegreeBaseline,
		KeepSingletons: true,
	})
	t.Cleanup(s.Close)
	entered, release := make(chan struct{}), make(chan struct{})
	var buf []byte
	var version uint64
	var names []string
	ckptDone := make(chan error, 1)
	go func() {
		ckptDone <- s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			version = l.Version()
			close(entered)
			<-release
			for _, tb := range l.Tables() {
				names = append(names, tb.Name)
			}
			buf = persist.Marshal(l, g)
			return nil
		})
	}()
	<-entered

	applied := make(chan error, 1)
	go func() {
		tb := table.New("late").AddColumn("animal", "Jaguar", "Puma")
		_, err := s.Apply([]*table.Table{tb}, []string{"T1"})
		applied <- err
	}()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Apply waited on a parked checkpoint")
	}
	if got := s.Version(); got != 6 {
		t.Errorf("published version after the write = %d, want 6", got)
	}
	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	sn, err := persist.Unmarshal(buf)
	if err != nil {
		t.Fatalf("parked checkpoint does not decode: %v", err)
	}
	var got []string
	for _, tb := range sn.Lake.Tables() {
		got = append(got, tb.Name)
	}
	if version != 4 || sn.Lake.Version() != version || sn.Graph == nil ||
		!reflect.DeepEqual(got, names) || !reflect.DeepEqual(names, []string{"T1", "T2", "T3", "T4"}) {
		t.Errorf("parked checkpoint decoded as version %d, tables %v, graph %v; started on version %d, tables %v",
			sn.Lake.Version(), got, sn.Graph != nil, version, names)
	}
}

// TestCheckpointRacesCompaction marshals checkpoints in a loop while a
// writer adds and removes tables of 5,000 fresh values each, more than the
// lake's compaction floor of 4,096 dead IDs, so every removal moves the lake
// to a new symbol generation. Each checkpoint must decode at the version its
// callback saw. Run with -race.
func TestCheckpointRacesCompaction(t *testing.T) {
	s := New(datagen.Figure1Lake(), domainnet.Config{
		Measure:        domainnet.DegreeBaseline,
		KeepSingletons: true,
	})
	t.Cleanup(s.Close)
	writerDone := make(chan error, 1)
	go func() {
		var remove []string
		for i := range 6 {
			vals := make([]string, 5000)
			for j := range vals {
				vals[j] = fmt.Sprintf("fresh%d_%d", i, j)
			}
			name := fmt.Sprintf("big%d", i)
			if _, err := s.Apply([]*table.Table{table.New(name).AddColumn("v", vals...)}, remove); err != nil {
				writerDone <- err
				return
			}
			remove = []string{name}
		}
		_, err := s.Apply(nil, remove)
		writerDone <- err
	}()

	for checkpoints := 0; ; checkpoints++ {
		var buf []byte
		var version uint64
		if err := s.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			version, buf = l.Version(), persist.Marshal(l, g)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sn, err := persist.Unmarshal(buf)
		if err != nil {
			t.Fatalf("checkpoint at version %d does not decode: %v", version, err)
		}
		if sn.Lake.Version() != version || sn.Graph == nil {
			t.Fatalf("checkpoint decoded as version %d (graph %v), callback saw %d",
				sn.Lake.Version(), sn.Graph != nil, version)
		}
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatal(err)
			}
			if n := s.lake.Symbols().Len(); n >= 5000 {
				t.Errorf("symbol table holds %d IDs after the churn: it never compacted", n)
			}
			t.Logf("%d checkpoints raced the writer", checkpoints+1)
			return
		default:
		}
	}
}

func TestAfterPublishHook(t *testing.T) {
	var versions []uint64
	l := datagen.Figure1Lake()
	s := NewWithOptions(l, domainnet.Config{
		Measure:        domainnet.DegreeBaseline,
		KeepSingletons: true,
	}, Options{AfterPublish: func(v uint64) { versions = append(versions, v) }})
	if _, err := s.Apply(nil, []string{"T4"}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{4, 5}; !reflect.DeepEqual(versions, want) {
		t.Errorf("AfterPublish saw versions %v, want %v", versions, want)
	}
}

// TestConcurrentReadersDuringWrites is the snapshot-isolation acceptance
// test: parallel /topk, /score and /stats readers run while a writer churns
// tables. Every response must be a 200 over some complete snapshot — no
// locked-out reads, no torn state. Run with -race.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	ts := newTestServer(t)

	const readers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/topk?k=5", "/score?value=jaguar", "/stats", "/topk?measure=degree&k=3"}
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader got %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(i)
	}

	// Writer: repeatedly add and remove a small table, forcing incremental
	// rebuilds and snapshot swaps under the readers.
	csv := "animal,city\nJaguar,Memphis\nPuma,Berlin\nOcelot,Lima\n"
	for round := 0; round < 25; round++ {
		name := fmt.Sprintf("churn%02d", round)
		resp := do(t, http.MethodPost, ts.URL+"/tables/"+name, strings.NewReader(csv))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("round %d: POST = %d", round, resp.StatusCode)
		}
		resp.Body.Close()
		resp = do(t, http.MethodDelete, ts.URL+"/tables/"+name, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: DELETE = %d", round, resp.StatusCode)
		}
		resp.Body.Close()
	}
	close(done)
	wg.Wait()

	// After 25 add/remove rounds the lake is back to Figure 1: the final
	// snapshot must agree with a cold build.
	top := getJSON(t, ts.URL+"/topk?k=1", http.StatusOK)
	if first := top["results"].([]any)[0].(map[string]any)["value"]; first != "JAGUAR" {
		t.Errorf("final top = %v, want JAGUAR", first)
	}
	if v := top["version"].(float64); v != 4+50 {
		t.Errorf("final version = %v, want 54", v)
	}
}
