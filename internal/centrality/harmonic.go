package centrality

import (
	"math/rand"
	"slices"

	"domainnet/internal/engine"
)

// Harmonic computes harmonic (closeness-family) centrality: for each node u
// the sum of 1/d(u,v) over all other nodes, which handles disconnected
// lakes gracefully (unreachable pairs contribute zero). It is not part of
// the paper's method — homographs are bridges, not hubs — and exists as an
// additional ablation baseline alongside Degree. One BFS runs per twin class
// (see twins), sharded across opts.Workers; each writes only its own output
// entry, so the parallel result is bit-identical to the serial one.
func Harmonic(g Graph, opts engine.Opts) []float64 {
	out := make([]float64, g.NumNodes())
	t := twinClasses(g, 0)
	defer t.release()
	harmonicExact(g, t, nil, out, opts)
	return out
}

// harmonicExact writes Σ 1/d into out for every node the affected mask
// admits (nil admits all): one BFS from each representative of g's twin
// quotient t, its sum copied to the class's twins. The copy is
// bit-identical to a twin's own BFS, since a BFS adds its terms level by
// level and every term of a level is the same 1/d.
func harmonicExact(g Graph, t twins, affected []bool, out []float64, opts engine.Opts) {
	n := g.NumNodes()
	reps := t.reps
	if affected != nil {
		reps = slices.DeleteFunc(slices.Clone(reps), func(r int32) bool { return !affected[r] })
	}
	engine.ParallelCtx(opts.Context(), opts.EffectiveWorkers(len(reps)), len(reps), func(_, lo, hi int) {
		a := engine.AcquireArena(n)
		defer a.Release()
		for _, s := range reps[lo:hi] {
			if opts.Cancelled() {
				return
			}
			out[s] = harmonicFromSource(g, s, a)
		}
	})
	for u, k := range t.classOf {
		if r := t.reps[k]; int32(u) != r && (affected == nil || affected[u]) {
			out[u] = out[r]
		}
	}
}

// harmonicFromSource runs one BFS and returns Σ 1/d(s,v).
func harmonicFromSource(g Graph, s int32, a *engine.Arena) float64 {
	a.ResetTouched()
	dist := a.Dist
	dist[s] = 1 // +1 offset; 0 means unvisited
	a.Queue = append(a.Queue, s)
	sum := 0.0
	for qi := 0; qi < len(a.Queue); qi++ {
		v := a.Queue[qi]
		if v != s {
			sum += 1.0 / float64(dist[v]-1)
		}
		dv := dist[v]
		for _, w := range g.Neighbors(v) {
			if dist[w] == 0 {
				dist[w] = dv + 1
				a.Queue = append(a.Queue, w)
			}
		}
	}
	return sum
}

// ApproxHarmonic estimates harmonic centrality from a uniform sample of
// opts.Samples BFS sources, scaled by n/s; used when the exact O(c·m) pass
// is too expensive. Sampled sources are sharded across opts.Workers with
// per-worker partial vectors.
func ApproxHarmonic(g Graph, opts engine.Opts) []float64 {
	n := g.NumNodes()
	samples := opts.Samples
	if samples <= 0 {
		panic("centrality: ApproxHarmonic requires Samples > 0")
	}
	if samples >= n {
		return Harmonic(g, opts)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(n)
	sources := make([]int32, samples)
	for i := range sources {
		sources[i] = int32(perm[i])
	}
	scale := float64(n) / float64(samples)
	return engine.ShardSumCtx(opts.Context(), opts.Workers, n, samples,
		func(a *engine.Arena, lo, hi int, out []float64) {
			approxHarmonicShard(g, sources[lo:hi], scale, opts, a, out)
		})
}

func approxHarmonicShard(g Graph, sources []int32, scale float64, opts engine.Opts, a *engine.Arena, out []float64) {
	dist := a.Dist
	for _, s := range sources {
		if opts.Cancelled() {
			return
		}
		a.ResetTouched()
		dist[s] = 1
		a.Queue = append(a.Queue, s)
		for qi := 0; qi < len(a.Queue); qi++ {
			v := a.Queue[qi]
			if v != s {
				// Harmonic centrality is symmetric on undirected graphs:
				// crediting the *target* with 1/d from a sampled source
				// estimates the same sum.
				out[v] += scale / float64(dist[v]-1)
			}
			dv := dist[v]
			for _, w := range g.Neighbors(v) {
				if dist[w] == 0 {
					dist[w] = dv + 1
					a.Queue = append(a.Queue, w)
				}
			}
		}
	}
}
