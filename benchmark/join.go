package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/persist"
	"domainnet/internal/repl"
	"domainnet/internal/serve"
)

// joinWork is replica_join: fresh followers bootstrapping from a leader
// that serves the SB lake, each until its first correct /topk.
type joinWork struct {
	f      *fleet
	client *http.Client // the joining followers' one keep-alive connection
	ref    []byte       // the leader's /topk?k=55
	last   repl.BootstrapStats
}

func setupJoin(cfg config, dir string, tr *tracer) (instance, error) {
	f, err := startFleet(cfg, dir, datagen.NewSB(cfg.seed), fleetOpts{measure: domainnet.DegreeBaseline}, tr)
	if err != nil {
		return nil, err
	}
	w := &joinWork{f: f, client: newSenderClient()}
	if w.ref, _, err = get(w.client, f.leaderURL+"/topk?k=55"); err != nil {
		w.close()
		return nil, err
	}
	// One join before measuring: the leader marshals its snapshot once per
	// version and serves every later bootstrap from that buffer.
	if err := w.join(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *joinWork) measure(m *meter, deadline time.Time) {
	for i := 0; m.running(i, deadline); i++ {
		trace := m.traceID(i)
		var d time.Duration
		var err error
		if trace != 0 {
			d, err = w.stagedJoin(m.tr, trace)
		} else {
			start := time.Now()
			err = w.join()
			d = time.Since(start)
		}
		m.op("op", trace != 0, d, err)
	}
}

// join is one operation: a default follower bootstraps (chunked, gzipped
// snapshot) and answers /topk?k=55 exactly as the leader does.
func (w *joinWork) join() error {
	f := &repl.Follower{Leader: w.f.leaderURL, Config: w.f.cfg, Client: w.client}
	if err := f.Bootstrap(context.Background()); err != nil {
		return err
	}
	defer f.Server().Close()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k=55", nil))
	if err := w.checkTopK(rec); err != nil {
		return err
	}
	st := f.BootstrapStats()
	if st.WireBytes >= st.RawBytes {
		return fmt.Errorf("bootstrap moved %d wire bytes for %d raw bytes", st.WireBytes, st.RawBytes)
	}
	w.last = st
	return nil
}

func (w *joinWork) checkTopK(rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.ref) {
		return fmt.Errorf("joined follower's /topk?k=55 (status %d) differs from the leader's", rec.Code)
	}
	return nil
}

// stagedJoin is the traced operation: the bootstrap's stages one at a time,
// through the same public calls the follower makes, each timed from outside.
// The leader-side marshal and compress are timed first under a "prep" root:
// marshal is cached per version on the leader, and the GET repeats the
// compression, so neither belongs to the join's own time twice.
func (w *joinWork) stagedJoin(tr *tracer, trace uint64) (time.Duration, error) {
	// The prep root is a trace of its own: one root per trace.
	prepTrace, prep := tr.newID(), tr.newID()
	prepStart := time.Now()
	var raw []byte
	var err error
	tr.timed("persist.marshal", prepTrace, prep, func() {
		err = w.f.leader.Checkpoint(func(l *lake.Lake, g *bipartite.Graph) error {
			raw = persist.Marshal(l, g)
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	tr.timed("persist.compress", prepTrace, prep, func() {
		_, err = persist.WriteChunked(io.Discard, raw, 0, 0, true)
	})
	if err != nil {
		return 0, err
	}
	tr.add("prep", prep, prepTrace, 0, prepStart, time.Now())

	opStart := time.Now()
	root := tr.newID()
	var wire []byte
	tr.timed("repl.transfer", trace, root, func() { wire, err = w.fetchChunked() })
	if err != nil {
		return 0, err
	}
	var buf []byte
	tr.timed("persist.decompress", trace, root, func() {
		r := bytes.NewReader(wire)
		for {
			chunk, _, cerr := persist.ReadChunk(r)
			if cerr == io.EOF {
				return
			}
			if cerr != nil {
				err = cerr
				return
			}
			buf = append(buf, chunk...)
		}
	})
	if err != nil {
		return 0, err
	}
	var sn *persist.Snapshot
	tr.timed("persist.decode", trace, root, func() { sn, err = persist.Unmarshal(buf) })
	if err != nil {
		return 0, err
	}
	var srv *serve.Server
	tr.timed("serve.install", trace, root, func() {
		srv = serve.NewWithOptions(sn.Lake, w.f.cfg, serve.Options{Graph: sn.Graph, ReadOnly: true})
	})
	defer srv.Close()
	rec := httptest.NewRecorder()
	tr.timed("serve.topk", trace, root, func() {
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k=55", nil))
	})
	end := time.Now()
	tr.add("op", root, trace, 0, opStart, end)
	if len(wire) >= len(buf) {
		return 0, fmt.Errorf("bootstrap moved %d wire bytes for %d raw bytes", len(wire), len(buf))
	}
	w.last = repl.BootstrapStats{WireBytes: int64(len(wire)), RawBytes: int64(len(buf))}
	return end.Sub(opStart), w.checkTopK(rec)
}

// fetchChunked GETs the leader's chunked, gzipped snapshot stream whole.
func (w *joinWork) fetchChunked() ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.f.leaderURL+"/repl/snapshot?chunked=1", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /repl/snapshot: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (w *joinWork) finish(m *meter) {
	m.setQuantile("join_ms_p50", m.samples("op"), 0.50, "ms")
	m.setQuantile("join_ms_p95", m.samples("op"), 0.95, "ms")
	m.set("repl.wire_bytes", float64(w.last.WireBytes), "B", "lower")
	m.set("repl.raw_bytes", float64(w.last.RawBytes), "B", "lower")
	ts := m.tr.collect()
	for _, s := range []struct{ metric, kind, span string }{
		{"persist.marshal_ms", "prep", "persist.marshal"},
		{"persist.compress_ms", "prep", "persist.compress"},
		{"repl.transfer_ms_p50", "op", "repl.transfer"},
		{"persist.decompress_ms", "op", "persist.decompress"},
		{"persist.decode_ms", "op", "persist.decode"},
		{"serve.install_ms", "op", "serve.install"},
	} {
		m.setQuantile(s.metric, ts.durations(s.kind, s.span), 0.5, "ms")
	}
}

func (w *joinWork) close() {
	w.client.CloseIdleConnections()
	w.f.close()
}
