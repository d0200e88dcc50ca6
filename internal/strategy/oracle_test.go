package strategy_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/transform"
	"repro/internal/vector"
)

// oracleFourier is the map-based Fourier planning and recovery that the
// workload's dense Fourier index replaced, kept verbatim as its oracle:
// weights and recovery look every coefficient's column up by mask, and a
// marginal is rebuilt from its own coefficient map. a = nil is the
// unweighted plan.
func oracleFourier(w *marginal.Workload, a []float64) ([]budget.Spec, func(z *vector.Blocked, groupVar []float64) ([]float64, []float64)) {
	support := bits.UnionClosure(w.Masks())
	d := w.D
	n := 1 << uint(d)
	cInv := 1 / math.Sqrt(float64(n))
	weights := make([]float64, len(support))
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	for i, m := range w.Marginals {
		contrib := float64(int64(1) << uint(d-m.Order()))
		if a != nil {
			contrib = a[i] * float64(int64(1)<<uint(w.D-m.Order()))
		}
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			weights[colOf[beta]] += contrib
		})
	}
	specs := make([]budget.Spec, len(support))
	for i := range support {
		specs[i] = budget.Spec{Count: 1, RowWeight: weights[i], C: cInv}
	}
	rm := func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64) {
		m := w.Marginals[i]
		coeff := make(map[bits.Mask]float64, 1<<uint(m.Order()))
		sum := 0.0
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			coeff[beta] = z.At(colOf[beta])
			sum += groupVar[colOf[beta]]
		})
		rCoefSq := math.Pow(2, float64(d-2*m.Order()))
		return evalFromFourier(d, m.Alpha, coeff), rCoefSq * sum
	}
	recover := func(z *vector.Blocked, groupVar []float64) ([]float64, []float64) {
		answers := make([]float64, 0, w.TotalCells())
		cellVar := make([]float64, len(w.Marginals))
		for i := range w.Marginals {
			cells, cv := rm(i, z, groupVar)
			answers = append(answers, cells...)
			cellVar[i] = cv
		}
		return answers, cellVar
	}
	return specs, recover
}

// evalFromFourier is the former transform.MarginalFromCoefficients.
func evalFromFourier(d int, alpha bits.Mask, coeff map[bits.Mask]float64) []float64 {
	k := alpha.Count()
	packed := make([]float64, 1<<uint(k))
	alpha.VisitSubsets(func(beta bits.Mask) {
		v, ok := coeff[beta]
		if !ok {
			panic(fmt.Sprintf("transform: missing Fourier coefficient for β=%v", beta))
		}
		packed[bits.CellIndex(alpha, beta)] = v
	})
	transform.WHT(packed)
	scale := math.Sqrt(float64(int64(1) << uint(d-k)))
	for i := range packed {
		packed[i] *= scale
	}
	return packed
}

// TestFourierMatchesMapOracle: over binary and Adult-encoded multi-bit
// schemas, Q1–Q3 with their star and anchored variants, the plain and the
// weighted Fourier plan carry Float64bits-equal budget specs to the map
// oracle, and the engine's recovery stage at workers {1, 2, 4}, over a
// monolithic and a sharded answer vector, returns Float64bits-equal
// answers and cell variances.
func TestFourierMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	binAttrs := make([]dataset.Attribute, 9)
	for i := range binAttrs {
		binAttrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Cardinality: 2}
	}
	bin := dataset.MustSchema(binAttrs)
	adult := dataset.AdultSchema()
	workloads := []*marginal.Workload{
		marginal.AllKWay(8, 1), marginal.AllKWay(8, 2), marginal.AllKWay(8, 3),
		marginal.SchemaKWayStar(bin, 1), marginal.SchemaKWayAnchored(bin, 2, 4),
		marginal.SchemaKWay(adult, 1), marginal.SchemaKWay(adult, 2),
		marginal.SchemaKWayStar(adult, 1), marginal.SchemaKWayAnchored(adult, 1, 3),
	}
	ctx := context.Background()
	for wi, w := range workloads {
		a := make([]float64, len(w.Marginals))
		for i := range a {
			a[i] = rng.Float64() * 4
		}
		for _, weights := range [][]float64{nil, a} {
			var plan *strategy.Plan
			var err error
			if weights == nil {
				plan, err = strategy.Fourier{}.Plan(w)
			} else {
				plan, err = strategy.Fourier{}.PlanWeighted(w, weights)
			}
			if err != nil {
				t.Fatal(err)
			}
			specs, recover := oracleFourier(w, weights)
			if len(plan.Specs) != len(specs) {
				t.Fatalf("workload %d: %d specs, oracle %d", wi, len(plan.Specs), len(specs))
			}
			for g := range specs {
				if plan.Specs[g].Count != specs[g].Count ||
					math.Float64bits(plan.Specs[g].RowWeight) != math.Float64bits(specs[g].RowWeight) ||
					math.Float64bits(plan.Specs[g].C) != math.Float64bits(specs[g].C) {
					t.Fatalf("workload %d: spec %d = %+v, oracle %+v", wi, g, plan.Specs[g], specs[g])
				}
			}
			z := make([]float64, len(specs))
			groupVar := make([]float64, len(specs))
			for i := range z {
				z[i] = rng.NormFloat64() * 30
				groupVar[i] = 0.5 + rng.Float64()*10
			}
			wantAns, wantVar := recover(vector.FromDense(z), groupVar)
			sharded := vector.New(len(z), 3)
			sharded.Scatter(z)
			for _, zv := range []*vector.Blocked{vector.FromDense(z), sharded} {
				for _, workers := range []int{1, 2, 4} {
					ans, cv, err := engine.Recoverer{}.Recover(ctx, w, plan, zv, groupVar, workers)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("workload %d weighted=%v blocks=%d workers=%d", wi, weights != nil, zv.Blocks(), workers)
					sameBits(t, what+" answers", ans, wantAns)
					sameBits(t, what+" cell variances", cv, wantVar)
				}
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}
