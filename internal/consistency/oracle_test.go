package consistency

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/marginal"
	"repro/internal/transform"
)

// The map-based projection the dense Fourier index replaced, kept verbatim
// as the oracle of L2WeightedWorkers, L2Answers and the L1/L∞
// reconstruction: oracleL2WeightedWorkers is the former L2WeightedWorkers
// (its coefficient-major and marginal-major phase-2 sweeps look every
// coefficient up by mask), oracleEvalAnswers the former evalAnswers, and
// oracleMarginalInto the former transform.MarginalFromCoefficientsInto.

// oracleL2WeightedWorkers is the former L2WeightedWorkers.
func oracleL2WeightedWorkers(w *marginal.Workload, noisy []float64, weight []float64, workers int) (*Result, error) {
	if len(noisy) != w.TotalCells() {
		return nil, fmt.Errorf("consistency: %d noisy values for %d cells", len(noisy), w.TotalCells())
	}
	if weight != nil && len(weight) != len(w.Marginals) {
		return nil, fmt.Errorf("consistency: %d weights for %d marginals", len(weight), len(w.Marginals))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	offsets := w.Offsets()

	// Phase 1: transform every positively weighted marginal block. Each
	// entry is independent, so the pool carves the marginal list up; the
	// per-marginal transform runs serially inside its task (cross-marginal
	// parallelism already saturates the pool; WHTWorkers would be
	// bit-identical either way).
	type transformed struct {
		block    []float64 // nil when the marginal is excluded
		numScale float64
		denTerm  float64
	}
	blocks := make([]transformed, len(w.Marginals))
	for i := range w.Marginals {
		if weight != nil && weight[i] < 0 {
			return nil, fmt.Errorf("consistency: negative weight %v for marginal %d", weight[i], i)
		}
	}
	parallelFor(len(w.Marginals), workers, func(i int) {
		m := w.Marginals[i]
		wi := 1.0
		if weight != nil {
			wi = weight[i]
		}
		if wi == 0 {
			return // excluded from the fusion entirely
		}
		k := m.Order()
		cells := m.Cells()
		block := make([]float64, cells)
		copy(block, noisy[offsets[i]:offsets[i]+cells])
		transform.WHTWorkers(block, 1)
		// block[packed β] = 2^{−k/2}·T_β, so T_β = 2^{k/2}·block.
		twoK := float64(int64(1) << uint(k))
		rCoef := sqrtN / twoK // 2^{d/2−k}
		blocks[i] = transformed{
			block:    block,
			numScale: wi * rCoef * math.Sqrt(twoK), // w_i·2^{d/2−k}·2^{k/2}
			denTerm:  wi * (sqrtN * sqrtN) / twoK,  // w_i·2^{d−k}
		}
	})

	// Phase 2: the per-coefficient weighted average. Either merge order
	// below gives coefficient β its contributions in ascending marginal
	// order — the exact floating-point sequence of the original serial
	// sweep — so the choice is purely a cost call, never a correctness one:
	//
	//   - the marginal-major sweep visits each marginal's 2^k subsets once
	//     (Σ 2^{k_i} work, no dominance tests) but is inherently serial;
	//   - the coefficient-major sweep shards the support across the pool,
	//     paying a dominance test per (coefficient, marginal) pair
	//     (|F|·ℓ / workers per worker).
	support := w.FourierSupport()
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	num := make([]float64, len(support))
	den := make([]float64, len(support))
	subsetCost, colCost := 0.0, 0.0
	for i, m := range w.Marginals {
		if blocks[i].block != nil {
			subsetCost += float64(m.Cells())
			colCost += float64(len(support)) / float64(workers)
		}
	}
	if workers <= 1 || subsetCost <= colCost {
		for i, m := range w.Marginals {
			tb := blocks[i]
			if tb.block == nil {
				continue
			}
			m.Alpha.VisitSubsets(func(beta bits.Mask) {
				c := colOf[beta]
				num[c] += tb.numScale * tb.block[bits.CellIndex(m.Alpha, beta)]
				den[c] += tb.denTerm
			})
		}
	} else {
		parallelRanges(len(support), workers, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				beta := support[c]
				for i, m := range w.Marginals {
					tb := blocks[i]
					if tb.block == nil || beta&^m.Alpha != 0 {
						continue // zero weight, or β ⋠ α_i
					}
					num[c] += tb.numScale * tb.block[bits.CellIndex(m.Alpha, beta)]
					den[c] += tb.denTerm
				}
			}
		})
	}
	coeff := make(map[bits.Mask]float64, len(support))
	for c, beta := range support {
		if den[c] != 0 {
			coeff[beta] = num[c] / den[c]
		}
	}

	answers, err := oracleEvalAnswers(w, coeff, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Coefficients: coeff, Answers: answers}, nil
}

// evalAnswers reconstructs every marginal from the coefficients, fanning
// the independent per-marginal inverse transforms over the pool (each
// writes its own disjoint slice of the concatenated answers).
func oracleEvalAnswers(w *marginal.Workload, coeff map[bits.Mask]float64, workers int) ([]float64, error) {
	answers := make([]float64, w.TotalCells())
	offsets := w.Offsets()
	errs := make([]error, len(w.Marginals))
	parallelFor(len(w.Marginals), workers, func(i int) {
		m := w.Marginals[i]
		// Guard against a workload marginal that shares no coefficients
		// (cannot happen when coeff came from the same workload).
		missing := false
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			if _, ok := coeff[beta]; !ok {
				missing = true
			}
		})
		if missing {
			errs[i] = fmt.Errorf("consistency: coefficients missing for marginal %v", m.Alpha)
			return
		}
		oracleMarginalInto(w.D, m.Alpha, coeff, answers[offsets[i]:offsets[i]+m.Cells()])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// oracleMarginalInto evaluates marginal α from a coefficient map by
// Theorem 4.1 into out (2^‖α‖ cells).
func oracleMarginalInto(d int, alpha bits.Mask, coeff map[bits.Mask]float64, out []float64) {
	k := alpha.Count()
	cells := 1 << uint(k)
	if len(out) != cells {
		panic(fmt.Sprintf("transform: out has %d cells, marginal needs %d", len(out), cells))
	}
	packed := out
	for i := range packed {
		packed[i] = 0
	}
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
}

// oracleWorkloads are the property-test workloads: binary Q1–Q3 and their
// star and anchored variants, Adult-encoded multi-bit Q1–Q2 (marginals over
// several bits per attribute), random mask sets with repeats, and one
// workload large enough for the parallel phase-2 fold.
func oracleWorkloads(rng *rand.Rand) []*marginal.Workload {
	bin := dataset.MustSchema(binaryAttrs(9))
	adult := dataset.AdultSchema()
	ws := []*marginal.Workload{
		marginal.AllKWay(8, 1), marginal.AllKWay(8, 2), marginal.AllKWay(8, 3),
		marginal.SchemaKWayStar(bin, 1), marginal.SchemaKWayAnchored(bin, 2, 4),
		marginal.SchemaKWay(adult, 1), marginal.SchemaKWay(adult, 2),
		marginal.SchemaKWayStar(adult, 1), marginal.SchemaKWayAnchored(adult, 1, 3),
		marginal.AllKWay(13, 5),
	}
	for n := 0; n < 6; n++ {
		d := 3 + rng.Intn(8)
		alphas := make([]bits.Mask, 1+rng.Intn(10))
		for i := range alphas {
			alphas[i] = bits.Mask(rng.Intn(1 << uint(d)))
		}
		alphas = append(alphas, alphas[0]) // a repeated marginal
		ws = append(ws, marginal.MustWorkload(d, alphas))
	}
	return ws
}

func binaryAttrs(n int) []dataset.Attribute {
	attrs := make([]dataset.Attribute, n)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Cardinality: 2}
	}
	return attrs
}

// TestL2MatchesMapOracle: over every oracle workload, unweighted and with
// random weights (some marginals excluded by a zero weight), L2Answers and
// L2WeightedWorkers at workers {1, 2, 4} are Float64bits-equal to the
// map-based oracle — answers and coefficients alike — and fail exactly
// when it fails.
func TestL2MatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for wi, w := range oracleWorkloads(rng) {
		noisy := make([]float64, w.TotalCells())
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 50
		}
		weight := make([]float64, len(w.Marginals))
		for i := range weight {
			weight[i] = 0.1 + rng.Float64()*3
			if rng.Intn(5) == 0 {
				weight[i] = 0
			}
		}
		for _, wgt := range [][]float64{nil, weight} {
			want, wantErr := oracleL2WeightedWorkers(w, noisy, wgt, 1)
			for _, workers := range []int{1, 2, 4} {
				got, err := L2WeightedWorkers(w, noisy, wgt, workers)
				answers, aerr := L2Answers(w, noisy, wgt, workers)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(aerr) != fmt.Sprint(wantErr) {
					t.Fatalf("workload %d workers %d: errors %v / %v, oracle %v", wi, workers, err, aerr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				sameBits(t, fmt.Sprintf("workload %d workers %d answers", wi, workers), got.Answers, want.Answers)
				sameBits(t, fmt.Sprintf("workload %d workers %d L2Answers", wi, workers), answers, want.Answers)
				if len(got.Coefficients) != len(want.Coefficients) {
					t.Fatalf("workload %d workers %d: %d coefficients, oracle %d", wi, workers, len(got.Coefficients), len(want.Coefficients))
				}
				for beta, v := range want.Coefficients {
					g, ok := got.Coefficients[beta]
					if !ok || math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("workload %d workers %d: coefficient %v = %v, oracle %v", wi, workers, beta, g, v)
					}
				}
			}
		}
	}
}

// TestLPReconstructionMatchesMapOracle: the L1/L∞ answers are the map
// oracle's reconstruction of the LP's coefficients, bit for bit.
func TestLPReconstructionMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	w := marginal.MustWorkload(4, []bits.Mask{0b0011, 0b0110, 0b1100, 0b1001})
	noisy := make([]float64, w.TotalCells())
	for i := range noisy {
		noisy[i] = 10 + rng.NormFloat64()*3
	}
	for _, lp := range []func(*marginal.Workload, []float64) (*Result, error){L1, LInf} {
		res, err := lp(w, noisy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleEvalAnswers(w, res.Coefficients, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "LP answers", res.Answers, want)
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
