package engine

import (
	"context"
	"sync"
	"sync/atomic"
)

// Arena is the reusable per-worker scratch state of one BFS-family traversal:
// distances, shortest-path counts, dependency accumulators, and the visit
// queue (which doubles as the visit order for reverse passes). One arena
// serves any number of consecutive sources; algorithms reset only the entries
// the previous source touched, so a full pass over k sources costs O(n) setup
// once instead of k times.
//
// Dist uses a +1 offset: the zero value means "unvisited", which is what
// makes the selective reset cheap.
type Arena struct {
	Dist  []int32
	Sigma []float64
	Delta []float64
	Queue []int32
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena returns an arena sized for an n-node graph with Dist, Sigma
// and Delta zeroed and Queue empty. Arenas are pooled process-wide; callers
// must Release them when the traversal is done.
func AcquireArena(n int) *Arena {
	a := arenaPool.Get().(*Arena)
	if cap(a.Dist) < n {
		a.Dist = make([]int32, n)
		a.Sigma = make([]float64, n)
		a.Delta = make([]float64, n)
		a.Queue = make([]int32, 0, n)
		return a
	}
	a.Dist = a.Dist[:n]
	a.Sigma = a.Sigma[:n]
	a.Delta = a.Delta[:n]
	a.Queue = a.Queue[:0]
	for i := range a.Dist {
		a.Dist[i] = 0
		a.Sigma[i] = 0
		a.Delta[i] = 0
	}
	return a
}

// Release returns the arena to the pool.
func (a *Arena) Release() { arenaPool.Put(a) }

// ResetTouched zeroes the Dist/Sigma/Delta entries of the given nodes —
// typically the previous source's Queue — and empties the queue.
func (a *Arena) ResetTouched() {
	for _, u := range a.Queue {
		a.Dist[u] = 0
		a.Sigma[u] = 0
		a.Delta[u] = 0
	}
	a.Queue = a.Queue[:0]
}

// ShardSumCtx is the scatter/sum harness shared by the sampled traversal
// measures: it partitions [0, items) across workers, hands each shard a
// pooled arena and a length-n float64 accumulator, and returns the
// element-wise sum of the accumulators (in worker order, so the result is
// deterministic for a fixed worker count). With one effective worker the
// shard writes into the result directly — no partial vectors, no copy.
//
// Shards that have not started when ctx is cancelled are skipped entirely,
// and shard functions are expected to poll the same context between
// sources. The sum of whatever the shards produced is still returned — on
// cancellation it is partial and the caller must discard it.
func ShardSumCtx(ctx context.Context, workers, n, items int, shard func(a *Arena, lo, hi int, out []float64)) []float64 {
	out := make([]float64, n)
	if items <= 0 || ctx.Err() != nil {
		return out
	}
	workers = Opts{Workers: workers}.EffectiveWorkers(items)
	if workers == 1 {
		a := AcquireArena(n)
		shard(a, 0, items, out)
		a.Release()
		return out
	}
	parts := make([][]float64, workers)
	ParallelCtx(ctx, workers, items, func(w, lo, hi int) {
		part := make([]float64, n)
		a := AcquireArena(n)
		shard(a, lo, hi, part)
		a.Release()
		parts[w] = part
	})
	for _, part := range parts {
		if part == nil {
			continue
		}
		for i, v := range part {
			out[i] += v
		}
	}
	return out
}

// Parallel partitions [0, items) into contiguous shards, one per worker, and
// runs fn concurrently on each non-empty shard. workers <= 0 selects
// GOMAXPROCS; the worker count never exceeds items. It returns the number of
// shards run; fn receives the shard's worker index and half-open item range.
// When only one shard results, fn runs on the calling goroutine.
func Parallel(workers, items int, fn func(worker, lo, hi int)) int {
	return ParallelCtx(context.Background(), workers, items, fn)
}

// ParallelCtx is Parallel with cancellation: shards whose goroutine has not
// been launched when ctx is cancelled are never started, and the return
// value counts only the shards that ran. Shards already running are not
// interrupted — long-running shard functions poll the same context
// themselves (see Opts.Cancelled) — so ParallelCtx still returns only after
// every launched shard has finished.
func ParallelCtx(ctx context.Context, workers, items int, fn func(worker, lo, hi int)) int {
	workers = Opts{Workers: workers}.EffectiveWorkers(items)
	if items <= 0 || ctx.Err() != nil {
		return 0
	}
	if workers == 1 {
		fn(0, 0, items)
		return 1
	}
	chunk := (items + workers - 1) / workers
	var wg sync.WaitGroup
	shards := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > items {
			hi = items
		}
		if lo >= hi || ctx.Err() != nil {
			break
		}
		shards++
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return shards
}

// Each runs fn once for every item in [0, items) on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS). Unlike Parallel's fixed
// shards, each worker takes the next unclaimed item as it finishes the last,
// so items of uneven cost balance across workers. fn receives its worker
// index, for per-worker scratch state, and the item. With one effective
// worker every item runs on the calling goroutine, in order.
func Each(workers, items int, fn func(worker, item int)) {
	if items <= 0 {
		return
	}
	workers = Opts{Workers: workers}.EffectiveWorkers(items)
	if workers == 1 {
		for i := range items {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < items; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
