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
	// Epsilon and Delta parameterize BetweennessEpsilon: estimates are
	// within Epsilon of the true betweenness fraction with probability
	// 1-Delta. Zeros select 0.05 and 0.1.
	Epsilon, Delta float64
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
// The latches are retry-safe rather than sync.Once: ScoresContext and
// RankingContext accept a context, and a computation cancelled mid-flight
// leaves the cache empty (never a partial result), so the next caller —
// cancellable or not — computes from scratch. Warm is the background
// precompute entry point built on them.
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
	// carry is the raw (denormalization-free) score vector a successor
	// detector's delta computation can reuse; nil when the measure is not
	// delta-capable. Written with scores under scoreMu, published by
	// scoreDone.
	carry []float64
	// incremental and dirtySize record which path computed the score cache
	// (same publication protocol as scores) — the serving layer's
	// incremental-vs-fallback accounting.
	incremental bool
	dirtySize   int
	// prior links to the predecessor snapshot's detector and the structural
	// diff that produced this graph, enabling the delta scoring path. It is
	// dropped on the first successful score computation, so prior chains
	// never exceed one hop and old snapshots are not retained.
	prior *scorePrior

	rankMu   sync.Mutex
	rankDone atomic.Bool
	ranking  []rank.Scored
}

// scorePrior is the delta-scoring link between a detector and its
// predecessor: prev supplies the raw carry vector, diff the node mapping and
// dirty set of the rebuild that separates the two graphs.
type scorePrior struct {
	prev *Detector
	diff *bipartite.Diff
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
// usable structural diff against a predecessor that holds a computed carry
// vector, attaches that predecessor as the delta-scoring prior: the first
// score computation then re-runs BFS only from the diff's affected
// components and carries everything else. The prior is best-effort — a Full
// diff, a predecessor whose scores are not computed, or a measure without a
// delta implementation all degrade silently to the usual full computation,
// and in those cases the predecessor is not retained.
func FromGraphWithPrior(g *bipartite.Graph, cfg Config, prev *Detector, diff *bipartite.Diff) *Detector {
	d := FromGraph(g, cfg)
	if prev != nil && diff != nil && !diff.Full && prev.ScoresReady() && prev.carry != nil {
		d.prior = &scorePrior{prev: prev, diff: diff}
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
	d.prior = nil // the carry supersedes it; drop the old snapshot
	d.scoreDone.Store(true)
	return scores, nil
}

// computeScores runs the measure over d.graph, preferring the delta path:
// when the scorer is delta-capable and a prior with a computed carry is
// attached, ScoreDelta re-scores only the components the rebuild dirtied.
// Every bail-out — non-delta scorer, missing prior or carry, churn past the
// plan threshold, options the delta path does not support — lands on the
// full computation. Called with scoreMu held.
func (d *Detector) computeScores(scorer engine.Scorer, opts engine.Opts) (scores, carry []float64, incremental bool, dirtySize int) {
	ds, isDelta := scorer.(engine.DeltaScorer)
	if !isDelta {
		return scorer.Score(d.graph, opts), nil, false, 0
	}
	if p := d.prior; p != nil {
		if prevCarry, ready := p.prev.carryState(); ready {
			dirtySize = len(p.diff.Dirty)
			delta := &engine.Delta{
				PrevToNew: p.diff.PrevToNew,
				Dirty:     p.diff.Dirty,
				PrevCarry: prevCarry,
			}
			if s, c, ok := ds.ScoreDelta(d.graph, delta, opts); ok {
				return s, c, true, dirtySize
			}
		}
	}
	s, c := ds.ScoreFull(d.graph, opts)
	return s, c, false, dirtySize
}

// carryState returns the raw carry vector once the score cache is computed.
// ready is false while scores are pending or when the measure produced no
// carry (non-delta scorers).
func (d *Detector) carryState() (carryVec []float64, ready bool) {
	if !d.scoreDone.Load() {
		return nil, false
	}
	return d.carry, d.carry != nil
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
		Delta:        c.Delta,
		Ctx:          ctx,
	}
}

// Ranking returns all candidate values ordered so likely homographs come
// first (pipeline step 3). The ranking is sorted once and memoized; the
// returned slice is shared across callers and must not be modified (TopK
// hands out private copies).
func (d *Detector) Ranking() []rank.Scored {
	r, _ := d.RankingContext(context.Background()) // background ctx: never fails
	return r
}

// RankingContext is Ranking with cancellation, with the same
// discard-on-cancel contract as ScoresContext: an abandoned computation
// leaves the ranking cache empty for the next caller.
func (d *Detector) RankingContext(ctx context.Context) ([]rank.Scored, error) {
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
	r := rank.Values(d.graph.Values(), scores, d.cfg.Measure.order())
	d.ranking = r
	d.rankDone.Store(true)
	return r, nil
}

// Ready reports whether the ranking (and therefore also the scores) cache is
// already computed, i.e. a TopK call would be a pure O(k) copy. The serving
// layer's warmer drives detectors to Ready in the background, and its
// metrics count reads against Ready detectors as warm hits.
func (d *Detector) Ready() bool { return d.rankDone.Load() }

// Warm precomputes the detector's scores and ranking under ctx — the
// background pre-warm entry point of the serving layer. On cancellation it
// returns ctx's error with all caches left empty; a completed Warm makes
// every later Scores/Ranking/TopK/Score call a cache hit.
func (d *Detector) Warm(ctx context.Context) error {
	_, err := d.RankingContext(ctx)
	return err
}

// TopK returns the k best homograph candidates: an O(k) copy of the cached
// ranking's prefix, freely mutable by the caller.
func (d *Detector) TopK(k int) []rank.Scored {
	return slices.Clone(rank.TopK(d.Ranking(), k))
}

// Score returns the score of one value (normalized form), if present.
func (d *Detector) Score(value string) (float64, bool) {
	u, ok := d.graph.ValueNode(value)
	if !ok {
		return 0, false
	}
	return d.Scores()[u], true
}
