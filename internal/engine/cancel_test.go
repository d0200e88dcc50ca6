package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// TestCancelDuringMeasureAndRecover cancels the context from inside the
// measure stage (while its answer blocks are being computed, and before its
// noise blocks are handed out) and inside the recover stage (while its
// marginals are being handed out). Each stage must stop claiming work,
// return ctx.Err() and leave no goroutine behind, at every worker count.
// The sizes sit above the serial cutoffs, so with more than one worker the
// pooled paths are the ones cancelled — the hooks assert they ran.
func TestCancelDuringMeasureAndRecover(t *testing.T) {
	w := marginal.AllKWay(14, 13) // 14 marginals of 2^13 cells
	x := vector.FromDense(make([]float64, 1<<6))
	const rows = 64 * noiseBlock
	if w.TotalCells() < recoverParallelMin || rows < perturbParallelMin {
		t.Fatalf("%d cells, %d rows: below the serial cutoffs", w.TotalCells(), rows)
	}
	eta := []float64{1}
	cfg := Config{Privacy: pureParams(1), Seed: 5}
	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()

		// Measure, sharded: the first answer block cancels.
		ctx, cancel := context.WithCancel(context.Background())
		var computed atomic.Int32
		plan := &strategy.Plan{
			Specs: []budget.Spec{{Count: rows, RowWeight: 1, C: 1}},
			AnswerBlock: func(_ *vector.Blocked, lo, hi int, out []float64) {
				computed.Add(1)
				cancel()
			},
		}
		if _, err := (Measurer{}).Measure(ctx, plan, x, eta, cfg, workers, 16); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: sharded measure returned %v, want context.Canceled", workers, err)
		}
		if n := computed.Load(); n == 0 || int(n) > workers {
			t.Fatalf("workers=%d: %d answer blocks computed, want at least one and at most one per worker", workers, n)
		}

		// Measure, monolithic: the exact answers cancel, so no noise block
		// may start.
		ctx, cancel = context.WithCancel(context.Background())
		var answered atomic.Bool
		plan = &strategy.Plan{
			Specs: []budget.Spec{{Count: rows, RowWeight: 1, C: 1}},
			TrueAnswers: func(*vector.Blocked, int) []float64 {
				answered.Store(true)
				cancel()
				return make([]float64, rows)
			},
		}
		if _, err := (Measurer{}).Measure(ctx, plan, x, eta, cfg, workers, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: measure returned %v, want context.Canceled", workers, err)
		}
		if !answered.Load() {
			t.Fatalf("workers=%d: measure returned before computing its answers", workers)
		}

		// Recover: the first marginal cancels.
		ctx, cancel = context.WithCancel(context.Background())
		var recovered atomic.Int32
		plan = &strategy.Plan{
			RecoverMarginal: func(i int, _ *vector.Blocked, _ []float64) ([]float64, float64, error) {
				recovered.Add(1)
				cancel()
				return make([]float64, w.Marginals[i].Cells()), 1, nil
			},
			Recover: func(*vector.Blocked, []float64) ([]float64, []float64, error) {
				cancel()
				return nil, nil, context.Canceled
			},
		}
		if _, _, err := (Recoverer{}).Recover(ctx, w, plan, vector.FromDense(nil), nil, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: recover returned %v, want context.Canceled", workers, err)
		}
		if n := recovered.Load(); int(n) > workers || workers > 1 && n == 0 {
			t.Fatalf("workers=%d: %d marginals recovered, want at most one per worker (and the pooled path used)", workers, n)
		}

		// Every pool goroutine has exited (they may take a moment to be
		// reaped after signalling the wait group).
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines before, %d after", workers, before, n)
		}
	}
}

// TestForEachIndexStopsOnCancel: once the context is done no further index
// is claimed — at most the ones already in flight finish — and every
// index is claimed exactly once otherwise.
func TestForEachIndexStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 64} {
		const n = 1000
		claims := make([]atomic.Int32, n)
		forEachIndex(context.Background(), n, workers, func(q *indexQueue) {
			for i, ok := q.claim(); ok; i, ok = q.claim() {
				claims[i].Add(1)
			}
		})
		for i := range claims {
			if c := claims[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d claimed %d times", workers, i, c)
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		forEachIndex(ctx, n, workers, func(q *indexQueue) {
			for _, ok := q.claim(); ok; _, ok = q.claim() {
				if ran.Add(1) == 5 {
					cancel()
				}
			}
		})
		if r := ran.Load(); r < 5 || int(r) > 5+workers-1 {
			t.Fatalf("workers=%d: %d indices ran, want 5 plus at most the %d in flight", workers, r, workers-1)
		}
	}
}
