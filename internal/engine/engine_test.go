package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		workers, items, wantMax int
	}{
		{4, 10, 4},  // explicit bound honored
		{10, 3, 3},  // clamped to items
		{1, 0, 1},   // never below one
		{-5, 10, 1}, // negative behaves like zero (>= 1)
	}
	for _, c := range cases {
		got := Opts{Workers: c.workers}.EffectiveWorkers(c.items)
		if got < 1 {
			t.Errorf("EffectiveWorkers(%d, %d) = %d, want >= 1", c.workers, c.items, got)
		}
		if c.workers > 0 && got > c.wantMax {
			t.Errorf("EffectiveWorkers(%d, %d) = %d, want <= %d", c.workers, c.items, got, c.wantMax)
		}
	}
	if got := (Opts{Workers: 10}).EffectiveWorkers(3); got != 3 {
		t.Errorf("EffectiveWorkers(10, 3) = %d, want 3", got)
	}
}

func TestParallelCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 100} {
		for _, items := range []int{0, 1, 5, 97} {
			var count int64
			seen := make([]int32, items)
			Parallel(workers, items, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&count, 1)
				}
			})
			if count != int64(items) {
				t.Fatalf("workers=%d items=%d: visited %d items", workers, items, count)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d items=%d: item %d visited %d times", workers, items, i, c)
				}
			}
		}
	}
}

func TestEachCoversAllItems(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 100} {
		for _, items := range []int{0, 1, 5, 97} {
			seen := make([]int32, items)
			maxWorker := int32(-1)
			Each(workers, items, func(w, i int) {
				atomic.AddInt32(&seen[i], 1)
				for {
					cur := atomic.LoadInt32(&maxWorker)
					if int32(w) <= cur || atomic.CompareAndSwapInt32(&maxWorker, cur, int32(w)) {
						break
					}
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d items=%d: item %d visited %d times", workers, items, i, c)
				}
			}
			if limit := (Opts{Workers: workers}).EffectiveWorkers(items); items > 0 && int(maxWorker) >= limit {
				t.Fatalf("workers=%d items=%d: worker index %d, want below %d", workers, items, maxWorker, limit)
			}
		}
	}
}

func TestParallelCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	shards := ParallelCtx(ctx, 4, 100, func(_, lo, hi int) {
		atomic.AddInt64(&ran, 1)
	})
	if shards != 0 || ran != 0 {
		t.Fatalf("pre-cancelled ParallelCtx ran %d shards (returned %d), want 0", ran, shards)
	}
	if out := ShardSumCtx(ctx, 4, 8, 100, func(a *Arena, lo, hi int, out []float64) {
		out[0] = 1
	}); out[0] != 0 {
		t.Fatalf("pre-cancelled ShardSumCtx ran a shard: %v", out)
	}
}

func TestParallelCtxNilSafetyViaOpts(t *testing.T) {
	// The zero Opts must behave as "never cancelled" everywhere.
	var o Opts
	if o.Cancelled() {
		t.Error("zero Opts reports cancelled")
	}
	if o.Context() == nil {
		t.Error("zero Opts yields a nil context")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.Ctx = ctx
	if o.Cancelled() {
		t.Error("live context reports cancelled")
	}
}

func TestArenaAcquireZeroed(t *testing.T) {
	a := AcquireArena(16)
	a.Dist[3] = 9
	a.Sigma[4] = 2
	a.Delta[5] = 7
	a.Queue = append(a.Queue, 3, 4, 5)
	a.Release()

	b := AcquireArena(16)
	defer b.Release()
	if len(b.Dist) != 16 || len(b.Sigma) != 16 || len(b.Delta) != 16 {
		t.Fatalf("arena sized %d/%d/%d, want 16", len(b.Dist), len(b.Sigma), len(b.Delta))
	}
	if len(b.Queue) != 0 {
		t.Errorf("queue not empty after acquire: %v", b.Queue)
	}
	for i := 0; i < 16; i++ {
		if b.Dist[i] != 0 || b.Sigma[i] != 0 || b.Delta[i] != 0 {
			t.Fatalf("arena not zeroed at %d: dist=%d sigma=%v delta=%v", i, b.Dist[i], b.Sigma[i], b.Delta[i])
		}
	}
}

func TestArenaResetTouched(t *testing.T) {
	a := AcquireArena(8)
	defer a.Release()
	a.Dist[2] = 1
	a.Sigma[2] = 3
	a.Delta[2] = 4
	a.Queue = append(a.Queue, 2)
	// An untouched-but-dirty entry must survive: ResetTouched is selective.
	a.Dist[5] = 9
	a.ResetTouched()
	if a.Dist[2] != 0 || a.Sigma[2] != 0 || a.Delta[2] != 0 {
		t.Error("touched entry not reset")
	}
	if len(a.Queue) != 0 {
		t.Error("queue not emptied")
	}
	if a.Dist[5] != 9 {
		t.Error("ResetTouched cleared an entry outside the queue")
	}
}

func TestArenaGrowsAcrossGraphSizes(t *testing.T) {
	a := AcquireArena(4)
	a.Release()
	b := AcquireArena(1024)
	defer b.Release()
	if len(b.Dist) != 1024 {
		t.Fatalf("arena did not grow: len %d", len(b.Dist))
	}
}
