package repro

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bits"
	"repro/internal/marginal"
)

// TestReleaserMatchesFreeFunction: the service API and the legacy one-shot
// wrapper are the same mechanism — bit-identical output for the same seed.
func TestReleaserMatchesFreeFunction(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	want, err := Release(tab, w, Options{Epsilon: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("answer lengths differ: %d vs %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if math.Float64bits(want.Answers[i]) != math.Float64bits(got.Answers[i]) {
			t.Fatalf("answer %d differs: %v vs %v", i, want.Answers[i], got.Answers[i])
		}
	}
}

// TestReleaserPreplansCache: construction warms the plan cache, so the
// first release is already a cache hit.
func TestReleaserPreplansCache(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	cache := NewPlanCache()
	r, err := NewReleaser(tab.Schema, w, WithCache(cache), WithStrategy(StrategyCluster))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("construction should have planned exactly once: %+v", st)
	}
	if _, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("first release should hit the warmed cache: %+v", st)
	}
}

// TestReleaserTypedErrors: construction and admission failures carry the
// typed sentinels so callers (and the HTTP layer) can branch on errors.Is.
func TestReleaserTypedErrors(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	other := MustSchema([]Attribute{{Name: "x", Cardinality: 2}})

	if _, err := NewReleaser(other, w); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("schema/workload mismatch: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, nil); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("nil workload: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, w, WithWorkers(-1)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("negative workers: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, w, WithQueryWeights([]float64{1})); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("mis-sized query weights: got %v", err)
	}
	if _, err := NewReleaser(tab.Schema, w, WithStrategy(StrategyKind(99))); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("unknown strategy: got %v", err)
	}

	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("zero epsilon: got %v", err)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Delta: 1.5}); !errors.Is(err, ErrInvalidDelta) {
		t.Fatalf("delta out of range: got %v", err)
	}
	if _, err := r.ReleaseVector(ctx, make([]float64, 4), ReleaseSpec{Epsilon: 1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("short vector: got %v", err)
	}
	// The legacy free functions surface the same sentinels.
	if _, err := Release(tab, w, Options{}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("free function zero epsilon: got %v", err)
	}
	if _, err := Release(nil, w, Options{Epsilon: 1}); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("free function nil table: got %v", err)
	}
}

// TestReleaserBudgetLedger: cumulative spend is tracked, concurrent
// releases never jointly pass the cap, and refusal spends nothing.
func TestReleaserBudgetLedger(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.4, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	eps, _ := r.Ledger().Spent()
	if math.Abs(eps-0.9) > 1e-12 {
		t.Fatalf("spent ε = %v, want 0.9", eps)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.2, Seed: 3}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-cap release: got %v", err)
	}
	// The refused release spent nothing.
	if eps, _ := r.Ledger().Spent(); math.Abs(eps-0.9) > 1e-12 {
		t.Fatalf("refused release changed spend to %v", eps)
	}
	// The remaining 0.1 is still usable.
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.1, Seed: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaserBudgetLedgerConcurrent: the ledger's check-and-charge is
// atomic — out of 20 concurrent ε=0.1 requests against a cap of 1.0,
// exactly 10 succeed.
func TestReleaserBudgetLedgerConcurrent(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(1.0+1e-9, 0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]error, 20)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = r.Release(context.Background(), tab,
				ReleaseSpec{Epsilon: 0.1, Seed: int64(i)})
		}(i)
	}
	wg.Wait()
	ok, exhausted := 0, 0
	for _, err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrBudgetExhausted):
			exhausted++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != 10 || exhausted != 10 {
		t.Fatalf("%d succeeded / %d exhausted, want 10/10", ok, exhausted)
	}
}

// TestReleaserSharedLedgerAcrossReleasers: one ledger caps the combined
// spend of several Releasers — the multi-workload serving deployment.
func TestReleaserSharedLedgerAcrossReleasers(t *testing.T) {
	tab := smallTable()
	ledger, err := NewBudgetLedger(1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewReleaser(tab.Schema, AllKWayMarginals(tab.Schema, 1), WithBudgetLedger(ledger))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReleaser(tab.Schema, AllKWayMarginals(tab.Schema, 2), WithBudgetLedger(ledger))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r1.Release(ctx, tab, ReleaseSpec{Epsilon: 0.6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Release(ctx, tab, ReleaseSpec{Epsilon: 0.6, Seed: 2}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("shared ledger must cap combined spend: got %v", err)
	}
}

// TestReleaserCancellation: a cancelled context aborts the release. The
// budget is charged at admission (conservative), so the spend stands.
func TestReleaserCancellation(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if eps, _ := r.Ledger().Spent(); eps != 1 {
		t.Fatalf("admitted-then-cancelled release must stay charged, spent ε = %v", eps)
	}
}

// TestReleaserSynthetic: synthetic microdata from the service API is free
// post-processing — no additional ledger spend.
func TestReleaserSynthetic(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := r.Synthetic(ctx, res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Count() == 0 {
		t.Fatal("synthetic table is empty")
	}
	if eps, _ := r.Ledger().Spent(); eps != 2 {
		t.Fatalf("synthetic generation changed spend to %v", eps)
	}
}

// TestReleaserSyntheticHonoursDeadline: synthetic generation checks its
// context between materialising, apportioning and sampling, not only on
// entry. At the Adult shape (2^23 cells) each step takes milliseconds, so
// a 1 ms deadline must stop the call with the deadline's error.
func TestReleaserSyntheticHonoursDeadline(t *testing.T) {
	tab := SyntheticAdult(1, 2000)
	w := AllKWayMarginals(tab.Schema, 1)
	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := r.Synthetic(ctx, res, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Synthetic under a 1 ms deadline: err = %v, want DeadlineExceeded", err)
	}
}

// expiresAfter is a context whose Err turns to DeadlineExceeded after a
// fixed number of calls: it pins where the checks are, independent of
// timing.
type expiresAfter struct {
	context.Context
	left int
}

func (c *expiresAfter) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.DeadlineExceeded
}

// TestReleaserSyntheticChecksBetweenSteps: a context that expires after
// the entry check (or after the first mid-pipeline check) still stops the
// call; one that never expires lets it finish.
func TestReleaserSyntheticChecksBetweenSteps(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for left := 0; left < 3; left++ {
		if _, err := r.Synthetic(&expiresAfter{context.Background(), left}, res, 8); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("context expiring after %d checks: err = %v, want DeadlineExceeded", left, err)
		}
	}
	if _, err := r.Synthetic(&expiresAfter{context.Background(), 3}, res, 8); err != nil {
		t.Errorf("context outliving every check: %v", err)
	}
}

// TestEffectiveSigma: the single-Gaussian description of a release. The
// optimal and uniform allocators both saturate the Proposition 3.1
// constraint Σ C_g²·η_g² = (ε/κ)², so σ_eff must equal the closed form
// √(2·ln(2/δ))/ε — under either neighbour model, since κ cancels at
// saturation. Pure-DP specs have no Gaussian description and return 0.
func TestEffectiveSigma(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 2)
	ctx := context.Background()

	const eps, delta = 0.5, 1e-6
	want := math.Sqrt(2*math.Log(2/delta)) / eps
	for name, opts := range map[string][]ReleaserOption{
		"fourier-optimal": nil,
		"uniform-budget":  {WithUniformBudget()},
		"identity":        {WithStrategy(StrategyIdentity)},
		"modify-model":    {WithModifyNeighbors()},
	} {
		r, err := NewReleaser(tab.Schema, w, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sigma, err := r.EffectiveSigma(ctx, ReleaseSpec{Epsilon: eps, Delta: delta})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sigma-want) > 1e-9*want {
			t.Fatalf("%s: σ_eff = %v, want %v (saturated constraint)", name, sigma, want)
		}
		if s, err := r.EffectiveSigma(ctx, ReleaseSpec{Epsilon: eps}); err != nil || s != 0 {
			t.Fatalf("%s: pure-DP σ_eff = %v, %v, want 0, nil", name, s, err)
		}
	}
}

// TestChargeCarriesSigma: a Gaussian release against a zCDP ledger records
// its exact mechanism description — the accountant then composes
// ρ = 1/(2σ²) instead of the (ε, δ) conversion bound.
func TestChargeCarriesSigma(t *testing.T) {
	tab := smallTable()
	w := AllKWayMarginals(tab.Schema, 1)
	comp, err := ZCDPComposition(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, w, WithBudgetCap(10, 1e-3), WithComposition(comp))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.5, Delta: 1e-5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 0.5, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	hist := r.Ledger().History()
	if len(hist) != 2 {
		t.Fatalf("ledger holds %d charges, want 2", len(hist))
	}
	wantSigma, err := r.EffectiveSigma(ctx, ReleaseSpec{Epsilon: 0.5, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if hist[0].Sigma != wantSigma || hist[0].Sensitivity != 1 {
		t.Fatalf("Gaussian charge recorded (σ=%v, Δ=%v), want (σ=%v, Δ=1)",
			hist[0].Sigma, hist[0].Sensitivity, wantSigma)
	}
	if hist[1].Sigma != 0 || hist[1].Sensitivity != 0 {
		t.Fatalf("Laplace charge must not carry a Gaussian description, got %+v", hist[1])
	}
}

// TestResultTablesDoNotAlias: a Result's tables are views of shared
// backing arrays, capped so that appending to one table's Cells or Attrs
// never overwrites its neighbour; writing a table cell never reaches
// Result.Answers, and writing a table's Attrs never reaches the next
// release. Without a schema, Attrs stay nil.
func TestResultTablesDoNotAlias(t *testing.T) {
	tab := smallTable()
	// The empty marginal covers no attribute, so its Attrs stay nil too.
	w, err := MarginalsOver(tab.Schema, [][]int{{0}, {1}, {}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantAttrs := [][]int{{0}, {1}, nil, {0, 2}}
	for i, mt := range res.Tables {
		if len(mt.Attrs) != len(wantAttrs[i]) || (mt.Attrs == nil) != (wantAttrs[i] == nil) {
			t.Fatalf("table %d attrs %v, want %v", i, mt.Attrs, wantAttrs[i])
		}
		for j := range mt.Attrs {
			if mt.Attrs[j] != wantAttrs[i][j] {
				t.Fatalf("table %d attrs %v, want %v", i, mt.Attrs, wantAttrs[i])
			}
		}
	}
	next0, next1 := res.Tables[1].Cells[0], res.Tables[1].Attrs[0]
	_ = append(res.Tables[0].Cells, -1)
	_ = append(res.Tables[0].Attrs, -1)
	if res.Tables[1].Cells[0] != next0 || res.Tables[1].Attrs[0] != next1 {
		t.Fatal("appending to table 0 overwrote table 1")
	}
	answer0 := res.Answers[0]
	res.Tables[0].Cells[0] = answer0 + 99
	if res.Answers[0] != answer0 {
		t.Fatal("writing a table cell changed Result.Answers")
	}
	res.Tables[3].Attrs[1] = 99
	again, err := r.Release(ctx, tab, ReleaseSpec{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Tables[3].Attrs; len(got) != 2 || got[1] != 2 {
		t.Fatalf("a write to one result's attrs reached the next: %v", got)
	}

	rv, err := NewReleaser(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	vres, err := rv.ReleaseVector(ctx, x, ReleaseSpec{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, mt := range vres.Tables {
		if mt.Attrs != nil {
			t.Fatalf("nil schema: table %d attrs %v, want nil", i, mt.Attrs)
		}
	}
}

func TestPerMarginal(t *testing.T) {
	w := marginal.MustWorkload(3, []bits.Mask{0b100, 0b110})
	answers := []float64{4, 1, 3, 1, 0, 1}
	per := perMarginal(w, answers)
	if len(per) != 2 || len(per[0]) != 2 || len(per[1]) != 4 {
		t.Fatalf("perMarginal shapes wrong: %v", per)
	}
	if per[0][0] != 4 || per[1][3] != 1 {
		t.Fatalf("perMarginal values wrong: %v", per)
	}
	per[0][0] = 99
	if answers[0] == 99 {
		t.Fatal("perMarginal must copy")
	}
}
