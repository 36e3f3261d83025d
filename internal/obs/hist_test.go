package obs

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestHistBucketLayout pins the bucket-map invariants everything else rests
// on: every value falls inside its bucket's bounds, bucket uppers are
// strictly increasing, and upper bounds round-trip to their own index.
func TestHistBucketLayout(t *testing.T) {
	values := []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 1<<20 + 3, 1<<40 + 7, 1<<62 + 11}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		values = append(values, int64(rng.Uint64()>>1))
	}
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		u := bucketUpper(i)
		if v > u {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, u, i)
		}
		if i > 0 && v <= bucketUpper(i-1) {
			t.Fatalf("value %d at or below previous bucket upper %d (bucket %d)", v, bucketUpper(i-1), i)
		}
	}
	// Buckets past the one holding MaxInt64 are unreachable from int64
	// samples; the invariants apply up to there.
	maxIdx := bucketIndex(math.MaxInt64)
	for i := 1; i <= maxIdx; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket uppers not increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
	for i := 0; i <= maxIdx; i++ {
		if got := bucketIndex(bucketUpper(i)); got != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", i, got)
		}
	}
}

// TestHistQuantileAccuracy checks the advertised bound against ground truth:
// for several sample distributions, every quantile estimate must land in
// [exact, exact*(1+HistRelError)] where exact is the nearest-rank quantile of
// the fully sorted sample set.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	distributions := map[string]func() int64{
		// Uniform microseconds-scale latencies.
		"uniform": func() int64 { return 1000 + int64(rng.Uint64()%9_000_000) },
		// Log-uniform across six orders of magnitude — the shape real
		// latency tails have.
		"loguniform": func() int64 {
			oct := 10 + int(rng.Uint64()%20)
			return int64(1)<<oct + int64(rng.Uint64()%(1<<oct))
		},
		// Heavy point mass plus a slow tail, like a cached endpoint.
		"bimodal": func() int64 {
			if rng.Uint64()%100 < 95 {
				return 50_000 + int64(rng.Uint64()%1000)
			}
			return 80_000_000 + int64(rng.Uint64()%40_000_000)
		},
	}
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 1.0}
	for name, gen := range distributions {
		var h Hist
		samples := make([]int64, 20000)
		for i := range samples {
			samples[i] = gen()
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		if s.Count != int64(len(samples)) {
			t.Fatalf("%s: count %d != %d", name, s.Count, len(samples))
		}
		for _, q := range quantiles {
			rank := int64(math.Ceil(q * float64(len(samples))))
			if rank < 1 {
				rank = 1
			}
			if rank > int64(len(samples)) {
				rank = int64(len(samples))
			}
			exact := samples[rank-1]
			est := s.Quantile(q)
			if est < exact {
				t.Errorf("%s q=%v: estimate %d undershoots exact %d", name, q, est, exact)
			}
			bound := exact + int64(float64(exact)*HistRelError) + 1
			if est > bound {
				t.Errorf("%s q=%v: estimate %d above error bound %d (exact %d)", name, q, est, bound, exact)
			}
		}
		if got, want := s.Quantile(1.0), samples[len(samples)-1]; got != want {
			t.Errorf("%s: q=1 must be the exact max: got %d want %d", name, got, want)
		}
	}
}

// TestHistQuantileNearestRank pins the rank to ceil(q*count) on sample
// counts where rounding q*count to the nearest integer would undershoot.
func TestHistQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int64
		q    float64
		want int64
	}{
		{11, 0.95, 11}, // ceil(10.45)
		{5, 0.25, 2},   // ceil(1.25)
		{5, 0.5, 3},
		{4, 0.5, 2},
	} {
		var h Hist
		for v := int64(1); v <= c.n; v++ {
			h.Observe(v)
		}
		if got := h.Snapshot().Quantile(c.q); got != c.want {
			t.Errorf("samples 1..%d: Quantile(%v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestHistQuantileEdgeCases covers empty and single-sample histograms and
// out-of-range q.
func TestHistQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Fatalf("empty mean = %d", got)
	}
	var h Hist
	h.Observe(12345)
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 12345 {
			t.Fatalf("single-sample quantile(%v) = %d, want 12345", q, got)
		}
	}
	h.Observe(-50) // clamped to 0
	s = h.Snapshot()
	if s.Count != 2 || s.Sum != 12345 {
		t.Fatalf("negative sample not clamped: count=%d sum=%d", s.Count, s.Sum)
	}
}

// TestHistMergeAssociativity: merging is associative and commutative, so the
// router may fold a fleet's snapshots in any order. Checks full structural
// equality of the merged histograms and their derived quantiles.
func TestHistMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	mk := func(n int, scale int64) HistSnapshot {
		var h Hist
		for i := 0; i < n; i++ {
			h.Observe(int64(rng.Uint64()%1_000_000) * scale)
		}
		return h.Snapshot()
	}
	a, b, c := mk(5000, 1), mk(3000, 64), mk(1, 1<<30)

	merge := func(parts ...HistSnapshot) HistSnapshot {
		var out HistSnapshot
		for _, p := range parts {
			out.Merge(p)
		}
		return out
	}
	ab := merge(a, b)
	abc1 := merge(ab, c) // (a+b)+c
	bc := merge(b, c)
	abc2 := merge(a, bc)   // a+(b+c)
	abc3 := merge(c, b, a) // reversed order
	for i, got := range []HistSnapshot{abc2, abc3} {
		if got.Count != abc1.Count || got.Sum != abc1.Sum || got.Max != abc1.Max {
			t.Fatalf("order %d: header mismatch: %+v vs %+v", i, got, abc1)
		}
		if !reflect.DeepEqual(got.Buckets, abc1.Buckets) {
			t.Fatalf("order %d: bucket mismatch", i)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if got.Quantile(q) != abc1.Quantile(q) {
				t.Fatalf("order %d: quantile(%v) differs", i, q)
			}
		}
	}
	// Merging must not alias the source snapshot's buckets.
	before := make(map[int]int64, len(a.Buckets))
	for k, v := range a.Buckets {
		before[k] = v
	}
	var into HistSnapshot
	into.Merge(a)
	into.Merge(a)
	if !reflect.DeepEqual(a.Buckets, before) {
		t.Fatal("Merge mutated its source snapshot")
	}
}

// TestHistConcurrentStorm hammers one histogram from many goroutines while a
// reader snapshots it. Run under -race in CI; here we assert the totals are
// exact after the dust settles (no lost updates).
func TestHistConcurrentStorm(t *testing.T) {
	const workers = 8
	const perWorker = 20000
	var h Hist
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader: snapshots must never panic or tear counts negative
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < 0 || s.Sum < 0 {
				t.Error("torn snapshot")
				return
			}
		}
	}()
	var wantSum int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
			var local int64
			for i := 0; i < perWorker; i++ {
				v := int64(rng.Uint64() % 10_000_000)
				local += v
				h.Observe(v)
			}
			mu.Lock()
			wantSum += local
			mu.Unlock()
		}(uint64(w + 1))
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("lost observations: count=%d want %d", s.Count, workers*perWorker)
	}
	if s.Sum != wantSum {
		t.Fatalf("lost sum: %d want %d", s.Sum, wantSum)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}
