// Package domainnet is the end-to-end homograph detection system of the
// paper (§3.4, Figure 4): (1) build the bipartite value/attribute graph of a
// data lake, (2) compute a centrality measure per value node, (3) rank value
// nodes so that likely homographs come first.
//
// The package is the library's primary entry point; examples and binaries
// use it rather than wiring the substrates together by hand.
//
// Every Measure is one row of a static table holding its short spelling,
// display name, engine.Scorer from internal/centrality and rank order; the
// Config is translated into the one engine.Opts struct every scorer shares.
// Adding a measure means adding a constant and its row.
package domainnet

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"domainnet/internal/bipartite"
	"domainnet/internal/centrality"
	"domainnet/internal/engine"
	"domainnet/internal/lake"
	"domainnet/internal/rank"
)

// Measure selects the homograph score computed in step 2 of the pipeline.
type Measure int

const (
	// BetweennessApprox is sampled betweenness centrality, the measure the
	// paper recommends for real lakes (§5.4). Homographs rank high.
	BetweennessApprox Measure = iota
	// BetweennessExact is full Brandes betweenness; O(c·m), where c is the
	// number of distinct neighbor lists: values that occur in exactly the
	// same attributes share one BFS.
	BetweennessExact
	// LCC is the exact local clustering coefficient of Eq. 1.
	// Homographs are hypothesized to rank low (Hypothesis 3.4).
	LCC
	// LCCAttr is the fast attribute-Jaccard variant of LCC.
	LCCAttr
	// DegreeBaseline ranks by node degree, a trivial baseline used in
	// ablation experiments.
	DegreeBaseline
	// BetweennessEpsilon is the Riondato-Kornaropoulos path-sampling
	// estimator with an (ε, δ) accuracy guarantee — the second
	// approximation the paper cites in §3.3.
	BetweennessEpsilon
	// HarmonicBaseline ranks by harmonic centrality, an ablation baseline.
	HarmonicBaseline
)

// measureInfo is one row of the measure table.
type measureInfo struct {
	spelling string        // short form the CLI and HTTP service accept
	name     string        // display name: /topk bodies, ETags, /scorers
	scorer   engine.Scorer // computes the per-node scores
	order    rank.Order    // ranking direction that puts homographs first
}

// measures describes every Measure, indexed by the constant.
var measures = [...]measureInfo{
	BetweennessApprox:  {"bc", "betweenness(approx)", centrality.ApproxBetweennessScorer, rank.Descending},
	BetweennessExact:   {"bc-exact", "betweenness(exact)", centrality.BetweennessExact{}, rank.Descending},
	LCC:                {"lcc", "lcc", centrality.LCCScorer, rank.Ascending},
	LCCAttr:            {"lcc-attr", "lcc(attr-jaccard)", centrality.LCCAttrScorer, rank.Ascending},
	DegreeBaseline:     {"degree", "degree", centrality.DegreeScorer, rank.Descending},
	BetweennessEpsilon: {"bc-eps", "betweenness(epsilon)", centrality.EpsilonBetweennessScorer, rank.Descending},
	HarmonicBaseline:   {"harmonic", "harmonic", centrality.HarmonicScorer{}, rank.Descending},
}

// info returns the measure's table row. An out-of-range Measure (a stale
// config, a future constant) gets the row of the zero value, the
// recommended sampled betweenness.
func (m Measure) info() *measureInfo {
	if m < 0 || int(m) >= len(measures) {
		m = BetweennessApprox
	}
	return &measures[m]
}

// String returns the measure's display name; an out-of-range Measure prints
// as Measure(N).
func (m Measure) String() string {
	if m < 0 || int(m) >= len(measures) {
		return fmt.Sprintf("Measure(%d)", int(m))
	}
	return measures[m].name
}

// order reports the ranking direction under which the measure places
// homograph candidates first.
func (m Measure) order() rank.Order { return m.info().order }

// Scorers returns the sorted display names of every measure.
func Scorers() []string {
	out := make([]string, len(measures))
	for i := range measures {
		out[i] = measures[i].name
	}
	slices.Sort(out)
	return out
}

// ParseMeasure resolves a measure from its short spelling (bc, bc-exact,
// bc-eps, lcc, lcc-attr, degree, harmonic) or its display name.
func ParseMeasure(name string) (Measure, bool) {
	for m := range measures {
		if measures[m].spelling == name || measures[m].name == name {
			return Measure(m), true
		}
	}
	return 0, false
}

// MeasureNames returns the sorted short spellings ParseMeasure accepts,
// for flag and API error messages.
func MeasureNames() []string {
	out := make([]string, len(measures))
	for i := range measures {
		out[i] = measures[i].spelling
	}
	slices.Sort(out)
	return out
}

// Config parameterizes a Detector.
type Config struct {
	// Measure is the homograph score; the zero value is the recommended
	// sampled betweenness centrality.
	Measure Measure
	// Samples is the BFS source count for BetweennessApprox. Zero picks
	// 1% of the node count (min 100), the heuristic of §5.4 footnote 7.
	Samples int
	// Seed drives source sampling; fixed seeds give reproducible rankings.
	Seed int64
	// Workers bounds graph-construction and scoring parallelism; zero means
	// all CPUs (GOMAXPROCS).
	Workers int
	// DegreeBiasedSampling switches approximate BC from uniform to
	// degree-proportional source sampling (§3.3).
	DegreeBiasedSampling bool
	// Epsilon parameterizes BetweennessEpsilon: estimates are within
	// Epsilon of the true betweenness fraction with probability 0.9. Zero
	// selects 0.05.
	Epsilon float64
	// KeepSingletons retains values occurring in a single attribute.
	// The paper's pre-processing drops them (§5); leave false to match.
	KeepSingletons bool
}

// Detector runs the three-step DomainNet pipeline over one immutable graph
// snapshot and caches the scores and ranking behind once-latches, so any
// number of goroutines can call Scores, Ranking, TopK and Score concurrently:
// the first caller per cache computes, later callers share the result. A
// Detector never observes lake mutations.
//
// The latches are retry-safe rather than sync.Once: ScoresContext and Warm
// accept a context, and a computation cancelled mid-flight leaves the cache
// empty (never a partial result), so the next caller — cancellable or not —
// computes from scratch.
type Detector struct {
	cfg   Config
	graph *bipartite.Graph

	// Each cache is a (mutex, done-flag, value) latch. done is set with
	// release semantics after the value write and checked with acquire
	// semantics on the fast path, so lock-free readers observe a fully
	// written slice; the mutex serializes the (at most one at a time)
	// computations and the retries after a cancellation.
	scoreMu   sync.Mutex
	scoreDone atomic.Bool
	scores    []float64
	// carry is what a successor detector's delta computation reuses; nil
	// when the measure is not delta-capable. Written with scores under
	// scoreMu, published by scoreDone.
	carry engine.Carry
	// incremental and dirtySize record which path computed the score cache
	// (same publication protocol as scores) — the serving layer's
	// incremental-vs-fallback accounting.
	incremental bool
	dirtySize   int
	// prior is what the predecessor snapshot's detector left for this one:
	// its carry, its ranking and the diff of the rebuild between the two
	// graphs. The score computation reads the carry and diff; the ranking
	// reads all three, and drops prior once it is built, so no superseded
	// detector is retained and its carry and ranking live one ranking long.
	prior *scorePrior

	rankMu   sync.Mutex
	rankDone atomic.Bool
	// ranking holds the value-node IDs, best candidate first, ties by node
	// ID (which is value order: Graph.Values is lexicographic). carried
	// records whether it was derived from the predecessor's ranking.
	ranking []int32
	carried bool
}

// scorePrior is the delta link between a detector and its predecessor.
type scorePrior struct {
	carry   engine.Carry    // the predecessor's carry
	ranking []int32         // its ranking, nil when it was not built
	diff    *bipartite.Diff // node mapping and dirty set of the rebuild
}

// New builds the DomainNet graph of a lake (pipeline step 1). Construction
// and scoring share the Config's Workers bound.
func New(l *lake.Lake, cfg Config) *Detector {
	return FromGraph(bipartite.FromLake(l, cfg.bipartiteOpts()), cfg)
}

// FromGraph wraps an already-built graph, for callers that construct or
// transform graphs themselves (subgraph scalability studies, injection
// experiments).
func FromGraph(g *bipartite.Graph, cfg Config) *Detector {
	return &Detector{cfg: cfg, graph: g}
}

// FromGraphWithPrior wraps a rebuilt graph and, when the rebuild produced a
// usable structural diff against a predecessor that holds a computed carry,
// links the new detector to the predecessor's carry and ranking: the first
// score computation then re-runs BFS only from the diff's affected
// components and carries everything else, and the ranking sorts only the
// nodes whose scores changed. The link is best-effort — a Full diff, a
// predecessor whose scores are not computed, or a measure without a delta
// implementation all degrade silently to the full computation. The new
// detector keeps the predecessor's carry and ranking, never the predecessor.
func FromGraphWithPrior(g *bipartite.Graph, cfg Config, prev *Detector, diff *bipartite.Diff) *Detector {
	d := FromGraph(g, cfg)
	if prev != nil && diff != nil && !diff.Full && prev.ScoresReady() && prev.carry != nil {
		d.prior = &scorePrior{carry: prev.carry, diff: diff}
		if prev.Ready() {
			d.prior.ranking = prev.ranking
		}
	}
	return d
}

// Graph exposes the underlying bipartite graph.
func (d *Detector) Graph() *bipartite.Graph { return d.graph }

// Scores computes (once) and returns the per-node score slice, indexed by
// node id; only value-node entries are meaningful for LCC measures. The
// scorer comes from the measure table, and every scorer receives the same
// engine.Opts derived from the Config. Concurrent callers block on one shared
// computation; the returned slice is shared and must not be modified.
func (d *Detector) Scores() []float64 {
	s, _ := d.ScoresContext(context.Background()) // background ctx: never fails
	return s
}

// ScoresContext is Scores with cancellation: the scorer polls ctx between
// traversal units, and a cancelled computation returns ctx's error with the
// cache left empty — the partial result is discarded, never installed, so a
// later call recomputes correctly. A caller that loses the latch race to an
// in-flight computation waits for it (the wait itself is not interruptible;
// compute slices are bounded by one traversal unit each) and then shares its
// result.
func (d *Detector) ScoresContext(ctx context.Context) ([]float64, error) {
	if d.scoreDone.Load() {
		return d.scores, nil
	}
	d.scoreMu.Lock()
	defer d.scoreMu.Unlock()
	if d.scoreDone.Load() {
		return d.scores, nil
	}
	if err := ctx.Err(); err != nil { // cancelled while queued on the latch
		return nil, err
	}
	scores, carry, incremental, dirtySize := d.computeScores(d.cfg.Measure.info().scorer, d.cfg.engineOpts(ctx))
	if err := ctx.Err(); err != nil {
		return nil, err // possibly partial: do not poison the cache (prior kept for the retry)
	}
	d.scores = scores
	d.carry = carry
	d.incremental = incremental
	d.dirtySize = dirtySize
	d.scoreDone.Store(true)
	return scores, nil
}

// computeScores runs the measure over d.graph, preferring the delta path:
// when the scorer is delta-capable and a prior is attached, ScoreDelta
// re-scores only the components the rebuild dirtied. Every bail-out —
// non-delta scorer, missing prior, churn past the plan threshold, options
// the delta path does not support — lands on the full computation. Called
// with scoreMu held.
func (d *Detector) computeScores(scorer engine.Scorer, opts engine.Opts) (scores []float64, carry engine.Carry, incremental bool, dirtySize int) {
	ds, isDelta := scorer.(engine.DeltaScorer)
	if !isDelta {
		return scorer.Score(d.graph, opts), nil, false, 0
	}
	if p := d.prior; p != nil {
		dirtySize = len(p.diff.Dirty)
		delta := &engine.Delta{
			PrevToNew: p.diff.PrevToNew,
			Dirty:     p.diff.Dirty,
			PrevCarry: p.carry,
		}
		if s, c, ok := ds.ScoreDelta(d.graph, delta, opts); ok {
			return s, c, true, dirtySize
		}
	}
	s, c := ds.ScoreFull(d.graph, opts)
	return s, c, false, dirtySize
}

// ScorePath reports which path computed the score cache: incremental is true
// when a delta computation carried prior scores, and dirty is the size of
// the structural dirty set it processed. computed is false until the score
// cache exists (the other results are then meaningless).
func (d *Detector) ScorePath() (incremental bool, dirty int, computed bool) {
	if !d.scoreDone.Load() {
		return false, 0, false
	}
	return d.incremental, d.dirtySize, true
}

// RankPath reports which path built the ranking: carried is true when it
// was derived from the predecessor's ranking, false when it was sorted.
// computed is false until the ranking exists.
func (d *Detector) RankPath() (carried, computed bool) {
	if !d.rankDone.Load() {
		return false, false
	}
	return d.carried, true
}

// ScoresReady reports whether the score cache is already computed — the
// serving layer's warm/cold accounting for point lookups.
func (d *Detector) ScoresReady() bool { return d.scoreDone.Load() }

// bipartiteOpts translates the Config into graph-construction options.
func (c Config) bipartiteOpts() bipartite.Options {
	return bipartite.Options{
		KeepSingletons: c.KeepSingletons,
		Workers:        c.Workers,
	}
}

// engineOpts translates the Config into the single options struct every
// scorer consumes, carrying ctx as the scorer's cancellation signal.
// Measure-specific defaults (sample budgets, epsilon) live in the scorers
// themselves.
func (c Config) engineOpts(ctx context.Context) engine.Opts {
	return engine.Opts{
		Workers:      c.Workers,
		Seed:         c.Seed,
		Samples:      c.Samples,
		Normalized:   true,
		DegreeBiased: c.DegreeBiasedSampling,
		Epsilon:      c.Epsilon,
		Ctx:          ctx,
	}
}

// Ranking returns all candidate values ordered so likely homographs come
// first (pipeline step 3). The order is computed once and memoized; each
// call builds a fresh slice from it, which the caller may modify.
func (d *Detector) Ranking() []rank.Scored {
	r, _ := d.rank(context.Background()) // background ctx: never fails
	return d.scored(r)
}

// rank computes (once) and returns the ranking as value-node IDs, with the
// same discard-on-cancel contract as ScoresContext. After a delta score
// computation it derives the order from the predecessor's: survivors whose
// raw score is bit-equal to their previous one keep their relative order,
// and only the other value nodes are sorted and merged in (rank.Carry). When
// rank.Carry finds the merged order is not the sorted one, it is sorted in
// full, so the ranking is always the one rank.Nodes gives.
func (d *Detector) rank(ctx context.Context) ([]int32, error) {
	if d.rankDone.Load() {
		return d.ranking, nil
	}
	d.rankMu.Lock()
	defer d.rankMu.Unlock()
	if d.rankDone.Load() {
		return d.ranking, nil
	}
	scores, err := d.ScoresContext(ctx)
	if err != nil {
		return nil, err
	}
	values, order := scores[:d.graph.NumValues()], d.cfg.Measure.order()
	var r []int32
	carried := false
	if p := d.prior; p != nil && d.incremental && p.ranking != nil {
		to := engine.Int32s(len(p.ranking))
		*to = p.kept(*to, d.carry, len(values))
		r, carried = rank.Carry(p.ranking, *to, values, order)
		engine.PutInt32s(to)
	}
	if !carried {
		r = rank.Nodes(values, order)
	}
	d.ranking, d.carried = r, carried
	d.prior = nil // consumed: release the predecessor's carry and ranking
	d.rankDone.Store(true)
	return r, nil
}

// kept maps each of the predecessor's value nodes to its value node here
// when it survived the rebuild with a raw score bit-equal to its previous
// one, and to -1 otherwise: rank.Carry's to, written over dst's array (rank
// passes pooled scratch, since the map lives for one rank.Carry call). It
// walks the nodes in ID order, which the rebuild's monotone node mapping
// keeps, so every read is sequential.
func (p *scorePrior) kept(dst []int32, carry engine.Carry, nValues int) []int32 {
	nPrev := len(p.ranking)
	prevToNew, prevCarry, carry := p.diff.PrevToNew[:nPrev], p.carry[:nPrev], carry[:nValues]
	out := slices.Grow(dst[:0], nPrev)[:nPrev]
	for q, u := range prevToNew {
		if uint(u) >= uint(len(carry)) || math.Float64bits(carry[u].Raw) != math.Float64bits(prevCarry[q].Raw) {
			u = -1
		}
		out[q] = u
	}
	return out
}

// scored pairs ranked value nodes with their values and scores.
func (d *Detector) scored(nodes []int32) []rank.Scored {
	out := make([]rank.Scored, len(nodes))
	for i, u := range nodes {
		out[i] = rank.Scored{Value: d.graph.Value(u), Score: d.scores[u]}
	}
	return out
}

// Ready reports whether the ranking (and therefore also the scores) cache is
// already computed, i.e. a TopK call costs O(k). The serving layer's warmer
// drives detectors to Ready in the background, and its metrics count reads
// against Ready detectors as warm hits.
func (d *Detector) Ready() bool { return d.rankDone.Load() }

// Warm precomputes the detector's scores and ranking under ctx — the
// background pre-warm entry point of the serving layer. On cancellation it
// returns ctx's error with all caches left empty; a completed Warm makes
// every later Scores/Ranking/TopK/Score call a cache hit.
func (d *Detector) Warm(ctx context.Context) error {
	_, err := d.rank(ctx)
	return err
}

// TopK returns the k best homograph candidates, built in O(k) from the
// cached ranking and freely mutable by the caller.
func (d *Detector) TopK(k int) []rank.Scored {
	r, _ := d.rank(context.Background()) // background ctx: never fails
	return d.scored(r[:min(max(k, 0), len(r))])
}

// Score returns the score of one value (normalized form), if present.
func (d *Detector) Score(value string) (float64, bool) {
	u, ok := d.graph.ValueNode(value)
	if !ok {
		return 0, false
	}
	return d.Scores()[u], true
}
