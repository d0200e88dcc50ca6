package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/strategy"
)

func TestExpectedAbsError(t *testing.T) {
	w := marginal.MustWorkload(3, []bits.Mask{0b011})
	got := ExpectedAbsError(w, []float64{math.Pi / 2})
	if math.Abs(got[0]-4) > 1e-12 { // 4 cells · √(2·(π/2)/π) = 4
		t.Fatalf("ExpectedAbsError = %v, want 4", got[0])
	}
}

func TestPreviewMatchesRunAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	for _, s := range allStrategies() {
		for _, b := range []Budgeting{UniformBudget, OptimalBudget} {
			cfg := Config{Strategy: s, Budgeting: b, Privacy: pureParams(0.7), Seed: 5}
			fc, err := Preview(w, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			rel, err := run(w, x, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fc.TotalVariance-rel.TotalVariance) > 1e-9*(1+rel.TotalVariance) {
				t.Fatalf("%s/%v: preview variance %v != run variance %v",
					s.Name(), b, fc.TotalVariance, rel.TotalVariance)
			}
			for i := range fc.CellStdDev {
				want := math.Sqrt(rel.CellVariances[i])
				if math.Abs(fc.CellStdDev[i]-want) > 1e-9*(1+want) {
					t.Fatalf("%s: cell σ mismatch at %d", s.Name(), i)
				}
			}
			for _, e := range fc.ExpectedAbsError {
				if e <= 0 || math.IsNaN(e) {
					t.Fatalf("%s: bad expected error %v", s.Name(), e)
				}
			}
		}
	}
}

func TestPreviewNeedsNoData(t *testing.T) {
	// Preview must work for domains far too large to materialise data for.
	w := marginal.AllKWay(20, 1) // N = 2^20; identity plan has 2^20 rows
	fc, err := Preview(w, Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget, Privacy: pureParams(1)})
	if err != nil {
		t.Fatal(err)
	}
	if fc.TotalVariance <= 0 {
		t.Fatal("empty forecast")
	}
}
