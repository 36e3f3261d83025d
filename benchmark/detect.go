package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/eval"
	"domainnet/internal/lake"
	"domainnet/internal/rank"
)

// topN is the ranking head the detection workloads produce and check: SB
// plants 55 homographs (paper §4.1).
const topN = 55

// detectWork is the paper's §5 pipeline, run offline: a directory of CSVs
// to a ranked top-55, through the same public calls a caller of the
// library makes (what domainnet.New does, stage by stage).
type detectWork struct {
	seed  int64
	sb    *datagen.SB
	dir   string
	cfg   domainnet.Config
	first []rank.Scored // every later operation must reproduce it exactly
	edges int
}

func setupDetect(measure domainnet.Measure) func(config, string, *tracer) (instance, error) {
	return func(cfg config, dir string, _ *tracer) (instance, error) {
		w := &detectWork{seed: cfg.seed, sb: datagen.NewSB(cfg.seed), dir: filepath.Join(dir, "lake"),
			cfg: domainnet.Config{Measure: measure}}
		if measure == domainnet.BetweennessApprox {
			w.cfg.Seed = cfg.seed
		}
		if err := w.sb.Lake.SaveDir(w.dir); err != nil {
			return nil, err
		}
		return w, nil
	}
}

func (w *detectWork) measure(m *meter, deadline time.Time) {
	for i := 0; m.running(i, deadline); i++ {
		trace, root := m.traceID(i), m.tr.newID()
		start := time.Now()
		top, g, err := w.detect(m.tr, trace, root)
		end := time.Now()
		if trace != 0 {
			m.tr.add("op", root, trace, 0, start, end)
		}
		if err == nil {
			if w.first == nil {
				w.first, w.edges = top, g.NumEdges()
			} else if !slices.Equal(top, w.first) {
				err = fmt.Errorf("operation %d ranked differently from the first", i)
			}
		}
		m.op("op", trace != 0, end.Sub(start), err)
	}
}

// detect is one operation: load, normalize, build, score, rank.
func (w *detectWork) detect(tr *tracer, trace, root uint64) ([]rank.Scored, *bipartite.Graph, error) {
	var (
		l     *lake.Lake
		err   error
		attrs []lake.Attribute
		g     *bipartite.Graph
		top   []rank.Scored
	)
	tr.timed("lake.load", trace, root, func() { l, err = lake.LoadDir(w.dir) })
	if err != nil {
		return nil, nil, err
	}
	tr.timed("lake.normalize", trace, root, func() { attrs = l.Attributes() })
	tr.timed("bipartite.build", trace, root, func() { g = bipartite.FromAttributes(attrs, bipartite.Options{}) })
	d := domainnet.FromGraph(g, w.cfg)
	tr.timed("centrality.score", trace, root, func() { d.Scores() })
	tr.timed("rank.rank", trace, root, func() { top = d.TopK(topN) })
	return top, g, nil
}

func (w *detectWork) finish(m *meter) {
	m.setQuantile("detect_ms_p50", m.samples("op"), 0.5, "ms")
	if w.first == nil {
		m.fail(fmt.Errorf("no detection completed"))
		return
	}
	hits := eval.HitsAtK(w.first, w.sb.HomographSet(), topN)
	m.set("hits_at_55", float64(hits), "count", "higher")
	m.set("bipartite.edges", float64(w.edges), "count", "lower")
	if err := w.checkQuality(hits); err != nil {
		m.fail(err)
	}
	ts := m.tr.collect()
	for _, s := range []struct{ metric, span string }{
		{"lake.load_ms_p50", "lake.load"},
		{"lake.normalize_ms_p50", "lake.normalize"},
		{"bipartite.build_ms_p50", "bipartite.build"},
		{"centrality.score_ms_p50", "centrality.score"},
		{"rank.rank_ms_p50", "rank.rank"},
	} {
		m.setQuantile(s.metric, ts.durations("op", s.span), 0.5, "ms")
	}
}

// checkQuality holds the ranking to what the paper's pipeline achieves on
// SB. Exact betweenness finds 38 of the 55 homographs with BUFFALO and
// JACKSON on top at every seed, and the CSV round trip must not change it:
// the in-memory lake ranks the same values with the same scores. Sampled
// betweenness finds at least 36 at every seed.
func (w *detectWork) checkQuality(hits int) error {
	if w.cfg.Measure == domainnet.BetweennessApprox {
		if hits < 36 {
			return fmt.Errorf("sampled betweenness found %d homographs in the top %d, want at least 36", hits, topN)
		}
		return nil
	}
	if hits != 38 {
		return fmt.Errorf("exact betweenness found %d homographs in the top %d, want 38", hits, topN)
	}
	if w.first[0].Value != "BUFFALO" || w.first[1].Value != "JACKSON" {
		return fmt.Errorf("exact betweenness top 2 are %s, %s; want BUFFALO, JACKSON", w.first[0].Value, w.first[1].Value)
	}
	if w.seed == 1 {
		// The published anchor (the paper's Figure 6 run).
		if got := fmt.Sprintf("%.6f %.6f", w.first[0].Score, w.first[1].Score); got != "0.167244 0.127816" {
			return fmt.Errorf("seed 1 top-2 scores are %s, want 0.167244 0.127816", got)
		}
	}
	ref := domainnet.New(w.sb.Lake, w.cfg).TopK(topN)
	for i := range ref {
		if ref[i].Value != w.first[i].Value || math.Abs(ref[i].Score-w.first[i].Score) > 1e-12 {
			return fmt.Errorf("rank %d from CSVs is %v, from the in-memory lake %v", i+1, w.first[i], ref[i])
		}
	}
	return nil
}

func (w *detectWork) close() {}
