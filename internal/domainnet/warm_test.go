package domainnet

// Coverage for the cancellable precompute path: Warm must fill the same
// caches the lazy accessors fill, a cancelled Warm must leave the detector
// cold (never a partial cache), and the retry-safe latches must still give
// the once-semantics the serving layer depends on.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"domainnet/internal/datagen"
)

func TestWarmFillsTheLazyCaches(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: BetweennessExact, KeepSingletons: true})
	if d.Ready() || d.ScoresReady() {
		t.Fatal("fresh detector reports warm caches")
	}
	if err := d.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !d.Ready() || !d.ScoresReady() {
		t.Fatal("Warm completed but caches are not ready")
	}
	// The lazy accessors must now read the very caches Warm computed.
	scores := d.Scores()
	ranking := d.Ranking()
	if &scores[0] != &d.scores[0] || ranking[0].Value != d.graph.Value(d.ranking[0]) {
		t.Error("post-Warm accessors recomputed instead of sharing the warm cache")
	}
	if top := d.TopK(1); top[0].Value != "JAGUAR" {
		t.Errorf("warm TopK = %v, want JAGUAR first", top)
	}
}

func TestCancelledWarmDoesNotPoisonTheCache(t *testing.T) {
	cfg := Config{Measure: BetweennessExact, KeepSingletons: true, Workers: 1}
	d := New(datagen.Figure1Lake(), cfg)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Warm(ctx); err == nil {
		t.Fatal("cancelled Warm returned nil error")
	}
	if d.Ready() || d.ScoresReady() {
		t.Fatal("cancelled Warm left caches marked ready")
	}

	// The next (uncancellable) read must compute the full, correct result —
	// identical to a detector that never saw a cancellation.
	fresh := New(datagen.Figure1Lake(), cfg)
	if !reflect.DeepEqual(d.Ranking(), fresh.Ranking()) {
		t.Error("ranking after a cancelled warm differs from a fresh computation")
	}
}

func TestWarmAndReadersShareOneComputation(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: BetweennessExact, KeepSingletons: true})
	const goroutines = 8
	scores := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if err := d.Warm(context.Background()); err != nil {
					t.Error(err)
				}
				scores[i] = d.Scores()
			} else {
				scores[i] = d.Scores()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if &scores[i][0] != &scores[0][0] {
			t.Fatal("concurrent Warm/Scores callers got different slices: the scorer ran twice")
		}
	}
}

func TestScoresContextCancelledWhileQueuedFails(t *testing.T) {
	d := New(datagen.Figure1Lake(), Config{Measure: BetweennessExact, KeepSingletons: true})
	// Hold the score latch so the cancellable caller is stuck queued behind
	// it, then observe that it honors its (already-cancelled) context when
	// the latch frees instead of recomputing.
	d.scoreMu.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := d.ScoresContext(ctx)
		errc <- err
	}()
	d.scoreMu.Unlock()
	if err := <-errc; err == nil {
		t.Fatal("queued-then-cancelled ScoresContext returned nil error")
	}
}
