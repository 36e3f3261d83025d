package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/serve"
	"domainnet/internal/table"
)

// Open-loop rates of the fleet workloads, per second.
const (
	readFleetRate  = 2000
	writeFleetRate = 20
	writeReadRate  = 500
)

// fleetWork is a measured fleet workload: read_fleet, write_fleet or
// fresh_exact.
type fleetWork struct {
	name    string
	seed    int64
	f       *fleet
	tr      *tracer
	vocab   []string // the SB lake's graph values, in a seed-chosen order
	ops     []op     // open-loop schedule (read_fleet, write_fleet)
	plan    []writeReq
	rd      *reads
	clients []*http.Client // one per sender
	check   *http.Client   // untimed verification requests
	watch   *watcher

	elapsed    time.Duration
	publishes0 int64
	walBytes0  int64
	warm0      serve.WarmStats
}

// writeReq is one planned mutation: add the table (csv non-nil) or delete it.
type writeReq struct {
	name string
	csv  []byte
}

func setupFleetWork(name string) func(config, string, *tracer) (instance, error) {
	return func(cfg config, dir string, tr *tracer) (instance, error) {
		sb := datagen.NewSB(cfg.seed)
		fo := fleetOpts{measure: domainnet.BetweennessExact, warm: true, followers: 2, router: true}
		if name == "write_fleet" {
			fo = fleetOpts{measure: domainnet.DegreeBaseline, followers: 2, router: true}
		}
		f, err := startFleet(cfg, dir, sb, fo, tr)
		if err != nil {
			return nil, err
		}
		w := &fleetWork{name: name, seed: cfg.seed, f: f, tr: tr, rd: newReads(tr, f.leaderURL), check: &http.Client{}}
		if err := f.leader.Checkpoint(func(_ *lake.Lake, g *bipartite.Graph) error {
			w.vocab = shuffled(cfg.seed, g.Values())
			return nil
		}); err != nil {
			f.close()
			return nil, err
		}
		dur := time.Duration(cfg.seconds * float64(time.Second))
		switch name {
		case "read_fleet":
			w.ops = schedule(cfg.seed, dur, readFleetRate*cfg.rateScale, 0, w.vocab)
		case "write_fleet":
			w.ops = schedule(cfg.seed, dur, writeReadRate*cfg.rateScale, writeFleetRate*cfg.rateScale, w.vocab)
			n := 0
			for _, o := range w.ops {
				if o.kind == opWrite {
					n++
				}
			}
			w.plan = writePlan(cfg.seed, n, w.vocab)
		}
		// read_fleet sends from one goroutine per CPU; write_fleet from one
		// writer and one reader; fresh_exact from one closed-loop writer.
		n := map[string]int{"read_fleet": senders(), "write_fleet": 2, "fresh_exact": 1}[name]
		for i := 0; i < n; i++ {
			w.clients = append(w.clients, newSenderClient())
		}
		// Fill every process's /topk response cache, so the measured reads
		// start from the warm state a long-running fleet is in.
		for _, u := range append([]string{f.leaderURL}, f.followerURLs...) {
			for _, k := range topKs {
				if _, _, err := get(w.check, u+"/topk?k="+strconv.Itoa(k)); err != nil {
					w.close()
					return nil, err
				}
			}
		}
		w.publishes0, w.warm0, w.walBytes0 = f.leader.Publishes(), f.warmTotals(), dirBytes(f.walDir)
		return w, nil
	}
}

func (w *fleetWork) measure(m *meter, deadline time.Time) {
	if w.name == "write_fleet" {
		w.watch = startWatcher(w.f, m)
	}
	start := time.Now()
	switch w.name {
	case "fresh_exact":
		w.measureFresh(m, deadline)
	case "read_fleet":
		drive(start, w.ops, w.clients, func(c *http.Client, i int, due time.Time) {
			trace := m.traceID(i)
			d, err := w.rd.do(c, w.f.routerURL, &w.ops[i], due, trace)
			m.op("op", trace != 0, d, err)
		})
	case "write_fleet":
		// The writer and the readers are different clients: writes go out
		// on one sender and connection, reads on the other, so a slow write
		// holds back the writes queued behind it but never a read.
		var writes, reads []op
		for _, o := range w.ops {
			if o.kind == opWrite {
				writes = append(writes, o)
			} else {
				reads = append(reads, o)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(start, writes, w.clients[:1], func(c *http.Client, i int, due time.Time) {
				w.write(m, c, &writes[i], due, m.traceID(i))
			})
		}()
		drive(start, reads, w.clients[1:], func(c *http.Client, i int, due time.Time) {
			trace := m.traceID(i)
			d, err := w.rd.do(c, w.f.routerURL, &reads[i], due, trace)
			m.op("op", trace != 0, d, err)
		})
		wg.Wait()
	}
	w.elapsed = time.Since(start)
	if w.watch != nil {
		if err := w.watch.drain(10 * time.Second); err != nil {
			m.fail(err)
		}
	}
}

// write sends one planned mutation of write_fleet through the router, timed
// from due to the acknowledgement, which the leader sends after its WAL
// fsync. The watcher then times how long the version takes to reach every
// follower.
func (w *fleetWork) write(m *meter, c *http.Client, o *op, due time.Time, trace uint64) {
	var root uint64
	if trace != 0 {
		root = w.tr.newID()
	}
	v, ack, err := w.mutate(c, w.plan[o.write], due, trace, root)
	if trace != 0 {
		w.tr.add("write", root, trace, 0, due, ack)
	}
	m.op("write", trace != 0, ack.Sub(due), err)
	if err == nil {
		w.watch.add(visReq{version: v, ack: ack, traced: trace != 0})
	}
}

// mutate sends a mutation through the router and returns the version its
// acknowledgement reports. With trace non-zero it records, below root, a
// "loadgen.late" span for the wait past due and a "net.client" span around
// the HTTP exchange.
func (w *fleetWork) mutate(c *http.Client, wr writeReq, due time.Time, trace, root uint64) (uint64, time.Time, error) {
	method, body, want := http.MethodDelete, io.Reader(nil), http.StatusOK
	if wr.csv != nil {
		method, body, want = http.MethodPost, bytes.NewReader(wr.csv), http.StatusCreated
	}
	req, err := http.NewRequest(method, w.f.routerURL+"/tables/"+wr.name, body)
	if err != nil {
		return 0, time.Now(), err
	}
	var client uint64
	if trace != 0 {
		client = w.tr.newID()
		req.Header.Set(spanHeader, formatSpanHeader(trace, client))
	}
	send := time.Now()
	resp, err := c.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ack := time.Now()
	if trace != 0 {
		w.tr.add("loadgen.late", w.tr.newID(), trace, root, due, send)
		w.tr.add("net.client", client, trace, root, send, ack)
	}
	if err != nil {
		return 0, ack, err
	}
	if resp.StatusCode != want {
		return 0, ack, fmt.Errorf("%s /tables/%s: status %d: %.200s", method, wr.name, resp.StatusCode, b)
	}
	var ackBody struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(b, &ackBody); err != nil {
		return 0, ack, fmt.Errorf("%s /tables/%s: %w", method, wr.name, err)
	}
	return ackBody.Version, ack, nil
}

// measureFresh is fresh_exact's closed loop. One writer sends a mutation
// and waits until both followers serve the exact-BC ranking at the version
// it produced; that is one operation, timed from the send. Between writes
// every process's warmer goes idle, so each operation prices one warm, not
// a queue of them.
func (w *fleetWork) measureFresh(m *meter, deadline time.Time) {
	for i := 0; m.running(i, deadline); i++ {
		wr, isolated := freshWrite(w.seed, i, w.vocab)
		trace := m.traceID(i)
		var root uint64
		if trace != 0 {
			root = w.tr.newID()
		}
		started := make([]int64, len(w.f.followers))
		for j, fw := range w.f.followers {
			started[j] = fw.Server().WarmStats().Started
		}
		send := time.Now()
		v, ack, err := w.mutate(w.clients[0], wr, send, trace, root)
		var done time.Time
		if err == nil {
			done, err = w.awaitFresh(v, ack, started, trace, root)
		}
		if trace != 0 && err == nil {
			w.tr.add("op", root, trace, 0, send, done)
		}
		if err == nil {
			err = w.sameTopK(v)
		}
		m.op("op", trace != 0, done.Sub(send), err)
		if err == nil {
			series := "fresh_connected"
			if isolated {
				series = "fresh_isolated"
			}
			m.observe(series, done.Sub(ack))
		}
		if err := w.f.settle(60 * time.Second); err != nil {
			m.fail(err)
			return
		}
	}
}

// awaitFresh polls, every 200 µs, each follower's version and warm counters
// until both have applied version v and finished the warm that applying it
// started, and returns when the later follower finished. With trace
// non-zero it records, below root, each follower's "repl.apply" span (from
// the leader's publish, or the acknowledgement when the leader is not
// traced, to the version appearing) and "serve.warm" span.
func (w *fleetWork) awaitFresh(v uint64, ack time.Time, started []int64, trace, root uint64) (time.Time, error) {
	n := len(w.f.followers)
	applied, warmed := make([]time.Time, n), make([]time.Time, n)
	for left := n; left > 0; {
		if time.Since(ack) > 60*time.Second {
			return time.Time{}, fmt.Errorf("version %d not served warm by every follower within 60s", v)
		}
		now := time.Now()
		for j, fw := range w.f.followers {
			if applied[j].IsZero() && fw.Version() >= v {
				applied[j] = now
			}
			if !applied[j].IsZero() && warmed[j].IsZero() {
				if ws := fw.Server().WarmStats(); ws.Started > started[j] && warmIdle(ws) {
					warmed[j] = now
					left--
				}
			}
		}
		if left > 0 {
			sleepUntil(now.Add(200 * time.Microsecond))
		}
	}
	if trace != 0 {
		from, ok := w.f.hooks.publishedAt(v)
		if !ok {
			from = ack
		}
		for j := range w.f.followers {
			w.tr.add("repl.apply", w.tr.newID(), trace, root, from, applied[j])
			w.tr.add("serve.warm", w.tr.newID(), trace, root, applied[j], warmed[j])
		}
	}
	return slices.MaxFunc(warmed, func(a, b time.Time) int { return a.Compare(b) }), nil
}

// sameTopK checks that the leader and every follower serve byte-identical
// /topk?k=55 bodies at version v.
func (w *fleetWork) sameTopK(v uint64) error {
	var want []byte
	for i, u := range append([]string{w.f.leaderURL}, w.f.followerURLs...) {
		body, ver, err := get(w.check, u+"/topk?k=55")
		if err != nil {
			return err
		}
		if ver != strconv.FormatUint(v, 10) {
			return fmt.Errorf("%s serves version %s, want %d", u, ver, v)
		}
		if i == 0 {
			want = body
		} else if !bytes.Equal(body, want) {
			return fmt.Errorf("follower %s /topk?k=55 differs from the leader's at version %d", u, v)
		}
	}
	return nil
}

func (w *fleetWork) finish(m *meter) {
	f := w.f
	if err := f.settle(60 * time.Second); err != nil {
		m.fail(err)
		return
	}
	ts := m.tr.collect()
	switch w.name {
	case "read_fleet":
		m.setQuantile("read_p50_us", m.samples("op"), 0.50, "us")
		m.setQuantile("read_p99_us", m.samples("op"), 0.99, "us")
		m.set("loadgen.achieved_per_s", float64(len(m.samples("op")))/w.elapsed.Seconds(), "1/s", "higher")
		w.readLayerMetrics(m, ts)
	case "write_fleet":
		m.setQuantile("read_p50_us", m.samples("op"), 0.50, "us")
		m.setQuantile("read_p99_us", m.samples("op"), 0.99, "us")
		m.setQuantile("write_ack_p50_ms", m.samples("write"), 0.50, "ms")
		m.setQuantile("write_ack_p95_ms", m.samples("write"), 0.95, "ms")
		m.setQuantile("visible_p50_ms", m.samples("visible"), 0.50, "ms")
		m.setQuantile("visible_p95_ms", m.samples("visible"), 0.95, "ms")
		if writes := float64(len(m.samples("write"))); writes > 0 {
			m.set("serve.publishes_per_write", float64(f.leader.Publishes()-w.publishes0)/writes, "ratio", "lower")
			m.set("wal.bytes_per_write", float64(dirBytes(f.walDir)-w.walBytes0)/writes, "B", "lower")
		}
		m.set("repl.lag_max", float64(w.watch.lag()), "count", "lower")
		w.readLayerMetrics(m, ts)
		w.writeLayerMetrics(m, ts)
	case "fresh_exact":
		m.setQuantile("fresh_isolated_ms_p50", m.samples("fresh_isolated"), 0.5, "ms")
		m.setQuantile("fresh_connected_ms_p50", m.samples("fresh_connected"), 0.5, "ms")
		m.setQuantile("serve.warm_ms_p50", ts.durations("op", "serve.warm"), 0.5, "ms")
		m.setQuantile("repl.apply_ms_p50", ts.durations("op", "repl.apply"), 0.5, "ms")
		w.writeLayerMetrics(m, ts)
	}
	ws := f.warmTotals()
	if started := ws.Started - w.warm0.Started; started > 0 {
		m.set("serve.warm_incremental", float64(ws.Incremental-w.warm0.Incremental), "count", "higher")
		m.set("serve.warm_full_fallback", float64(ws.FullFallback-w.warm0.FullFallback), "count", "lower")
		m.set("serve.warm_cancelled_share", float64(ws.Cancelled-w.warm0.Cancelled)/float64(started), "share", "lower")
	}
	w.rd.setMetrics(m, f, w.warm0.Misses)
	if err := w.rd.verify(w.check, f.leader.Version()); err != nil {
		m.fail(err)
	}
	if err := w.sameTopK(f.leader.Version()); err != nil {
		m.fail(err)
	}
	if w.name != "read_fleet" {
		if err := f.checkScratch(); err != nil {
			m.fail(err)
		}
	}
}

// readLayerMetrics derives the read path's per-layer metrics from the
// traced reads.
func (w *fleetWork) readLayerMetrics(m *meter, ts traceSet) {
	m.setQuantile("net.client_us_p50", ts.selfTimes("op", "net.client"), 0.5, "us")
	m.setQuantile("router.self_us_p50", ts.selfTimes("op", "router"), 0.5, "us")
	m.setQuantile("router.self_us_p99", ts.selfTimes("op", "router"), 0.99, "us")
	m.setQuantile("serve.topk_us_p50", ts.durations("op", "serve.topk"), 0.5, "us")
	m.setQuantile("serve.score_us_p50", ts.durations("op", "serve.score"), 0.5, "us")
}

// writeLayerMetrics derives the write path's per-layer metrics from the
// traced mutations: the upload (handler start to the commit hook: body
// read, CSV parse, validation), the commit hook (WAL append, fsync, tail
// ring), the publish (commit end to AfterPublish: mutate, rebuild, swap),
// and, on write_fleet, the time from the leader's publish until each
// follower has the version.
func (w *fleetWork) writeLayerMetrics(m *meter, ts traceSet) {
	var upload, commit, publish []float64
	for id, root := range ts.roots {
		if root.Name != "write" && (root.Name != "op" || w.name != "fresh_exact") {
			continue
		}
		var handler, wal *span
		for i, s := range ts.byTrace[id] {
			switch s.Name {
			case "serve.write":
				handler = &ts.byTrace[id][i]
			case "wal.commit":
				wal = &ts.byTrace[id][i]
				commit = append(commit, float64(s.dur())/1e6)
			case "serve.publish":
				publish = append(publish, float64(s.dur())/1e6)
			}
		}
		if handler != nil && wal != nil {
			upload = append(upload, float64(wal.Start-handler.Start)/1e6)
		}
	}
	m.setQuantile("serve.upload_ms_p50", upload, 0.5, "ms")
	m.setQuantile("serve.publish_ms_p50", publish, 0.5, "ms")
	m.setQuantile("serve.publish_ms_p95", publish, 0.95, "ms")
	m.setQuantile("wal.commit_ms_p50", commit, 0.5, "ms")
	m.setQuantile("wal.commit_ms_p95", commit, 0.95, "ms")
	if w.name == "write_fleet" {
		m.setQuantile("repl.apply_ms_p50", ts.durations("visible", "repl.apply"), 0.5, "ms")
		m.setQuantile("repl.apply_ms_p95", ts.durations("visible", "repl.apply"), 0.95, "ms")
	}
}

func (w *fleetWork) close() {
	if w.watch != nil {
		w.watch.stop()
	}
	for _, c := range append(w.clients, w.check) {
		c.CloseIdleConnections()
	}
	w.f.close()
}

// checkScratch checks that the leader's ranking, reached by incremental
// rebuilds (and delta scoring where warmed), equals a server built from
// scratch over the same tables — to the program's own contract for exact
// betweenness, whose delta path sums in another order: every score within
// a relative 1e-12, and two values trading places only when their scratch
// scores tie at that tolerance.
func (f *fleet) checkScratch() error {
	var tables []*table.Table
	if err := f.leader.Checkpoint(func(l *lake.Lake, _ *bipartite.Graph) error {
		tables = append(tables, l.Tables()...)
		return nil
	}); err != nil {
		return err
	}
	l := lake.New("scratch")
	for _, t := range tables {
		if err := l.Add(t); err != nil {
			return err
		}
	}
	scratch := serve.New(l, f.cfg)
	defer scratch.Close()
	want, err := topkResults(scratch)
	if err != nil {
		return err
	}
	got, err := topkResults(f.leader)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("the leader ranks %d values, a scratch build %d", len(got), len(want))
	}
	tie := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b)) }
	for i := range want {
		ok := got[i] == want[i]
		if !ok && tie(got[i].Score, want[i].Score) {
			s, err := scoreOf(scratch, got[i].Value)
			ok = err == nil && tie(s, want[i].Score)
		}
		if !ok {
			return fmt.Errorf("rank %d of the leader's incremental top %d is %v, a scratch build over the same %d tables ranks %v there",
				i+1, topN, got[i], len(tables), want[i])
		}
	}
	return nil
}

// scoreOf asks a server for one value's score in-process.
func scoreOf(h http.Handler, value string) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/score?value="+url.QueryEscape(value), nil))
	var body struct {
		Score float64 `json:"score"`
		Found bool    `json:"found"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !body.Found {
		return 0, fmt.Errorf("/score?value=%s: status %d", value, rec.Code)
	}
	return body.Score, nil
}

type scoredJSON struct {
	Value string  `json:"value"`
	Score float64 `json:"score"`
}

// topkResults asks a server for its top 55 in-process and returns the
// ranked entries without the version stamp.
func topkResults(h http.Handler) ([]scoredJSON, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k="+strconv.Itoa(topN), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/topk: status %d", rec.Code)
	}
	var body struct {
		Results []scoredJSON `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return nil, err
	}
	return body.Results, nil
}

// writePlan plans write_fleet's mutations: adds of 3-column, 200-row
// tables until 32 exist, then deletes of the oldest alternating with adds.
func writePlan(seed int64, n int, vocab []string) []writeReq {
	plan := make([]writeReq, 0, n)
	var live []string
	added := 0
	for len(plan) < n {
		if len(live) >= 32 && plan[len(plan)-1].csv != nil {
			plan = append(plan, writeReq{name: live[0]})
			live = live[1:]
			continue
		}
		name := fmt.Sprintf("bench_%05d", added)
		plan = append(plan, writeReq{name: name, csv: csvBytes(benchTable(seed, added, name, vocab))})
		live = append(live, name)
		added++
	}
	return plan
}

// benchTable is write_fleet's upload: 70% of its cells are SB values, so
// the table joins the lake's giant component; the rest are values of its own.
func benchTable(seed int64, i int, name string, vocab []string) *table.Table {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	t := table.New(name)
	for c := 0; c < 3; c++ {
		col := make([]string, 200)
		for r := range col {
			if rng.Float64() < 0.7 {
				col[r] = vocab[rng.Intn(len(vocab))]
			} else {
				col[r] = fmt.Sprintf("W%d_%d_%d", i, c, rng.Intn(1000))
			}
		}
		t.AddColumn(fmt.Sprintf("c%d", c), col...)
	}
	return t
}

// freshWrite is fresh_exact's i-th mutation. Writes cycle through three
// isolated tables and one connected table, each added and then deleted: an
// isolated table's values occur nowhere else, so it forms a small component
// of its own and the warm takes the delta path; a connected table's values
// are SB values, so the giant component changes and the warm recomputes.
func freshWrite(seed int64, i int, vocab []string) (writeReq, bool) {
	n := i / 2
	isolated := n%4 != 3
	name := fmt.Sprintf("fresh_%05d", n)
	if i%2 == 1 {
		return writeReq{name: name}, isolated
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	t := table.New(name)
	for c := 0; c < 2; c++ {
		col := make([]string, 40)
		for r := range col {
			if isolated {
				col[r] = fmt.Sprintf("ISO%d_%d", n, rng.Intn(12))
			} else {
				col[r] = vocab[rng.Intn(len(vocab))]
			}
		}
		t.AddColumn(fmt.Sprintf("c%d", c), col...)
	}
	return writeReq{name: name, csv: csvBytes(t)}, isolated
}

func csvBytes(t *table.Table) []byte {
	var b bytes.Buffer
	t.WriteCSV(&b) //nolint:errcheck // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// watcher times how long acknowledged writes take to reach every follower:
// while any write is pending it polls each follower's applied version every
// 200 µs (an atomic load on an in-process follower).
type watcher struct {
	f      *fleet
	m      *meter
	mu     sync.Mutex
	queue  []*visReq
	lagMax uint64
	wake   chan struct{}
	quit   chan struct{}
	done   chan struct{}
}

type visReq struct {
	version uint64
	ack     time.Time
	traced  bool
	seen    []time.Time // when each follower first had the version
}

func startWatcher(f *fleet, m *meter) *watcher {
	w := &watcher{f: f, m: m, wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

// lag is the largest leader-minus-follower version gap seen while polling.
func (w *watcher) lag() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lagMax
}

func (w *watcher) add(r visReq) {
	r.seen = make([]time.Time, len(w.f.followers))
	w.mu.Lock()
	w.queue = append(w.queue, &r)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *watcher) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		idle := len(w.queue) == 0
		w.mu.Unlock()
		if idle {
			select {
			case <-w.wake:
			case <-w.quit:
				return
			}
			continue
		}
		w.poll()
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

func (w *watcher) poll() {
	now := time.Now()
	lv := w.f.leader.Version()
	vs := make([]uint64, len(w.f.followers))
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, fw := range w.f.followers {
		vs[i] = fw.Version()
		if lv > vs[i] {
			w.lagMax = max(w.lagMax, lv-vs[i])
		}
	}
	keep := w.queue[:0]
	for _, r := range w.queue {
		left := 0
		for i, v := range vs {
			if r.seen[i].IsZero() && v >= r.version {
				r.seen[i] = now
			}
			if r.seen[i].IsZero() {
				left++
			}
		}
		if left > 0 {
			keep = append(keep, r)
			continue
		}
		w.complete(r)
	}
	w.queue = keep
}

// complete records a write that every follower has applied.
func (w *watcher) complete(r *visReq) {
	last := slices.MaxFunc(r.seen, func(a, b time.Time) int { return a.Compare(b) })
	w.m.observe("visible", last.Sub(r.ack))
	tr := w.f.hooks
	if !r.traced || tr == nil {
		return
	}
	// The visibility of a write is a trace of its own: one root per trace.
	trace, root := tr.tr.newID(), tr.tr.newID()
	from, ok := tr.publishedAt(r.version)
	if !ok {
		from = r.ack
	}
	for _, s := range r.seen {
		tr.tr.add("repl.apply", tr.tr.newID(), trace, root, from, s)
	}
	tr.tr.add("visible", root, trace, 0, r.ack, last)
}

// drain waits until every acknowledged write is visible everywhere.
func (w *watcher) drain(timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		n := len(w.queue)
		w.mu.Unlock()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d acknowledged writes not visible on every follower after %v", n, timeout)
		}
	}
}

func (w *watcher) stop() {
	close(w.quit)
	<-w.done
}
