// Package consistency implements the Fourier-coefficient consistency step of
// Sections 3.3 and 4.3: given noisy (mutually inconsistent) marginal tables,
// it finds the consistent set of marginals closest to them in L2 (closed
// form), or in L1/L∞ (linear programming), where "consistent" means all
// tables are marginals of one common (unknown) data vector.
//
// The L2 program min ‖R·f̂ − ỹ‖₂ over the Fourier coefficients f̂ has a
// remarkable structure: with R_{(i,γ),β} = 2^{d/2−‖α_i‖}·(−1)^{⟨β,γ⟩} for
// β ⪯ α_i, the Gram matrix RᵀR is diagonal, because for β ≠ β' both
// dominated by α_i, Σ_{γ⪯α_i}(−1)^{⟨β⊕β',γ⟩} = 0 (β⊕β' is a non-empty
// subset of α_i). Hence
//
//	f̂_β = Σ_{i: β⪯α_i} 2^{d/2−‖α_i‖}·T_β^{(i)}  /  Σ_{i: β⪯α_i} 2^{d−‖α_i‖},
//	T_β^{(i)} = Σ_{γ⪯α_i} (−1)^{⟨β,γ⟩}·ỹ_{(i,γ)}
//
// — a per-coefficient weighted average over every marginal that observes
// the coefficient, computable with one small Walsh–Hadamard transform per
// marginal. The derivation survives per-marginal weights (noise variances
// differ across marginals but are constant within one), which keeps the
// Gram matrix diagonal; L2Weighted implements that generalized version.
//
// Every projection works in the dense layout of the workload's Fourier
// index (marginal.Workload.Fourier): coefficients live in a slice aligned
// with the support F, and marginal i reads and writes them through its
// support columns, in packed-cell order. That order is the subset walk the
// original map-based sweep used, so every sum is formed in the same order
// and the answers are bit-identical to it. Only Result.Coefficients is a
// map, built for callers that read it.
package consistency

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bits"
	"repro/internal/lp"
	"repro/internal/marginal"
	"repro/internal/transform"
)

// Result carries the consistent marginal answers and the underlying Fourier
// coefficients.
type Result struct {
	// Coefficients maps β ∈ F to f̂_β, the estimated Fourier coefficient of
	// the hidden data vector in the orthonormal basis.
	Coefficients map[bits.Mask]float64
	// Answers is the consistent concatenated answer vector R·f̂, aligned
	// with the workload's marginal order.
	Answers []float64
}

// L2 computes the unweighted least-squares consistent marginals.
func L2(w *marginal.Workload, noisy []float64) (*Result, error) {
	return L2Weighted(w, noisy, nil)
}

// L2Weighted computes weighted least-squares consistent marginals.
// weight[i] applies to every cell of marginal i (use 1/variance for
// GLS-style fusion); nil means all ones.
func L2Weighted(w *marginal.Workload, noisy []float64, weight []float64) (*Result, error) {
	return L2WeightedWorkers(w, noisy, weight, 0)
}

// L2WeightedWorkers is L2Weighted with an explicit worker bound — the
// parallel form of the projection, which used to be the release pipeline's
// last serial stage. workers 0 uses all CPUs; 1 forces serial execution.
// The result is bit-identical at every worker count (see L2Answers, which
// it runs before building the coefficient map).
func L2WeightedWorkers(w *marginal.Workload, noisy []float64, weight []float64, workers int) (*Result, error) {
	p, err := l2Project(w, noisy, weight, workers)
	if err != nil {
		return nil, err
	}
	return p.result(w), nil
}

// L2Answers is L2WeightedWorkers without the coefficient map: the
// consistent answers alone, which is all a release publishes. Callers that
// read coefficients use L2WeightedWorkers.
//
// The three phases fan out over the pool, each with a deterministic merge
// so the result is bit-identical at every worker count:
//
//  1. per-marginal small WHTs (the T_β transforms) — independent blocks,
//     one pool task per marginal, each transform itself bit-identical at
//     any internal worker count (transform.WHTWorkers);
//  2. the per-coefficient weighted average — a dense sweep over the
//     workload's Fourier index (marginal.Workload.Fourier). Coefficient β
//     receives its contributions in ascending marginal order, the order of
//     a marginal-by-marginal subset walk, whether one worker sweeps every
//     marginal or each worker owns a range of support columns (each
//     marginal's columns are sorted, so a worker finds its slice by binary
//     search);
//  3. reconstruction R·f̂ — independent per-marginal inverse transforms
//     writing disjoint slices of the answer vector, each reading its
//     coefficients from the dense vector through its support columns.
func L2Answers(w *marginal.Workload, noisy []float64, weight []float64, workers int) ([]float64, error) {
	p, err := l2Project(w, noisy, weight, workers)
	if err != nil {
		return nil, err
	}
	return p.answers, nil
}

// projection is a consistency result in the index's dense layout:
// coef[c] is f̂ of support column c, defined where observed[c].
type projection struct {
	answers  []float64
	coef     []float64
	observed []bool
}

// result builds the public Result, with its coefficient map.
func (p *projection) result(w *marginal.Workload) *Result {
	support := w.Fourier().Support
	n := 0
	for _, ok := range p.observed {
		if ok {
			n++
		}
	}
	coeff := make(map[bits.Mask]float64, n)
	for c, beta := range support {
		if p.observed[c] {
			coeff[beta] = p.coef[c]
		}
	}
	return &Result{Coefficients: coeff, Answers: p.answers}
}

// l2Project runs the weighted L2 projection (see L2Answers).
func l2Project(w *marginal.Workload, noisy []float64, weight []float64, workers int) (*projection, error) {
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
	// Marginal i transforms in scratch[offsets[i]:], one pooled slab laid
	// out like noisy.
	slab := scratchPool.Get().(*[]float64)
	if cap(*slab) < len(noisy) {
		*slab = make([]float64, len(noisy))
	}
	scratch := (*slab)[:len(noisy)]
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
		block := scratch[offsets[i] : offsets[i]+cells]
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

	// Phase 2: the per-coefficient weighted average over the dense index.
	// Packed cell p of marginal i holds the coefficient of column
	// fi.Cols[i][p], so the fold reads block[p] directly. Whichever way the
	// sweep is split, every column sees its marginals in ascending order.
	fi := w.Fourier()
	num := make([]float64, len(fi.Support))
	den := make([]float64, len(fi.Support))
	fold := func(lo, hi int32) {
		for i, cols := range fi.Cols {
			tb := blocks[i]
			if tb.block == nil {
				continue
			}
			p := 0
			if lo > 0 {
				p = sort.Search(len(cols), func(j int) bool { return cols[j] >= lo })
			}
			for ; p < len(cols) && cols[p] < hi; p++ {
				c := cols[p]
				num[c] += tb.numScale * tb.block[p]
				den[c] += tb.denTerm
			}
		}
	}
	if workers <= 1 || len(noisy) < parallelFoldMin {
		fold(0, int32(len(fi.Support)))
	} else {
		parallelRanges(len(fi.Support), workers, func(lo, hi int) { fold(int32(lo), int32(hi)) })
	}
	// The transform scratch is dead once the weighted average is folded;
	// recycle it for the next release.
	scratchPool.Put(slab)

	observed := make([]bool, len(fi.Support))
	for c := range num {
		if den[c] != 0 {
			num[c] /= den[c]
			observed[c] = true
		}
	}
	answers, err := evalDense(w, num, observed, workers)
	if err != nil {
		return nil, err
	}
	return &projection{answers: answers, coef: num, observed: observed}, nil
}

// parallelFoldMin is the released-cell count below which the phase-2 fold
// runs serially: under it the fold is a few microseconds, less than
// starting the pool.
const parallelFoldMin = 1 << 15

// evalDense reconstructs every marginal from the dense coefficients
// (aligned with the workload's Fourier support), fanning the independent
// per-marginal inverse transforms over the pool; each writes its own
// disjoint slice of the concatenated answers. observed, when non-nil,
// marks the columns that hold a coefficient: a marginal reading an
// unobserved one is an error (the first such marginal's is returned).
func evalDense(w *marginal.Workload, coef []float64, observed []bool, workers int) ([]float64, error) {
	fi := w.Fourier()
	answers := make([]float64, w.TotalCells())
	offsets := w.Offsets()
	errs := make([]error, len(w.Marginals))
	parallelFor(len(w.Marginals), workers, func(i int) {
		cols := fi.Cols[i]
		out := answers[offsets[i] : offsets[i]+len(cols)]
		for p, c := range cols {
			if observed != nil && !observed[c] {
				errs[i] = fmt.Errorf("consistency: coefficients missing for marginal %v", w.Marginals[i].Alpha)
				return
			}
			out[p] = coef[c]
		}
		transform.MarginalFromPacked(w.D, out)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// scratchPool recycles the phase-1 transform scratch across calls: the
// blocks live only from their small WHT until the weighted average folds
// them, so one release's scratch serves the next. It is one slab per call
// rather than a buffer per marginal because a garbage collection empties a
// sync.Pool: that must cost one allocation, not one per marginal, or
// allocs/op would follow GC timing and no alloc gate could hold it.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// parallelFor runs fn(i) for i in [0, n), distributed round-robin over the
// pool. fn must write only its own slots; with workers ≤ 1 it degenerates
// to a plain loop.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < n; i += workers {
				fn(i)
			}
		}(wk)
	}
	wg.Wait()
}

// parallelRanges splits [0, n) into one contiguous shard per worker.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RecoveryRows materialises the explicit K×|F| recovery matrix R of
// Section 4.3 (rows ordered like the concatenated answers, columns ordered
// like support), used by the LP formulations and available for tests.
func RecoveryRows(w *marginal.Workload, support []bits.Mask) [][]float64 {
	colOf := make(map[bits.Mask]int, len(support))
	for c, b := range support {
		colOf[b] = c
	}
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	rows := make([][]float64, 0, w.TotalCells())
	for _, m := range w.Marginals {
		k := m.Order()
		rCoef := sqrtN / float64(int64(1)<<uint(k))
		for idx := 0; idx < m.Cells(); idx++ {
			gamma := bits.CellMask(m.Alpha, idx)
			row := make([]float64, len(support))
			m.Alpha.VisitSubsets(func(beta bits.Mask) {
				col, ok := colOf[beta]
				if !ok {
					panic(fmt.Sprintf("consistency: support misses β=%v", beta))
				}
				row[col] = rCoef * beta.Sign(gamma)
			})
			rows = append(rows, row)
		}
	}
	return rows
}

// L1 computes the consistent marginals minimising ‖R·f̂ − ỹ‖₁ via the LP of
// Section 4.3. Exact but cubic-ish in the workload size; prefer L2 at scale.
func L1(w *marginal.Workload, noisy []float64) (*Result, error) {
	return lpConsistency(w, noisy, false)
}

// LInf computes the consistent marginals minimising ‖R·f̂ − ỹ‖∞.
func LInf(w *marginal.Workload, noisy []float64) (*Result, error) {
	return lpConsistency(w, noisy, true)
}

func lpConsistency(w *marginal.Workload, noisy []float64, inf bool) (*Result, error) {
	if len(noisy) != w.TotalCells() {
		return nil, fmt.Errorf("consistency: %d noisy values for %d cells", len(noisy), w.TotalCells())
	}
	support := w.FourierSupport()
	rows := RecoveryRows(w, support)
	var (
		fhat []float64
		err  error
	)
	if inf {
		fhat, _, err = lp.MinimizeLInf(rows, noisy)
	} else {
		fhat, _, err = lp.MinimizeL1(rows, noisy)
	}
	if err != nil {
		return nil, fmt.Errorf("consistency: LP failed: %w", err)
	}
	answers, err := evalDense(w, fhat, nil, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	coeff := make(map[bits.Mask]float64, len(support))
	for c, b := range support {
		coeff[b] = fhat[c]
	}
	return &Result{Coefficients: coeff, Answers: answers}, nil
}

// IsConsistent verifies that the concatenated answers are mutually
// consistent: every Fourier coefficient observed by several marginals must
// agree across them within tol. (Theorem 4.1 makes this equivalent to the
// existence of a common data vector when the total-count coefficient also
// agrees, which it is part of.)
func IsConsistent(w *marginal.Workload, answers []float64, tol float64) bool {
	if len(answers) != w.TotalCells() {
		return false
	}
	d := w.D
	sqrtN := math.Sqrt(float64(int64(1) << uint(d)))
	seen := make(map[bits.Mask]float64)
	offsets := w.Offsets()
	for i, m := range w.Marginals {
		k := m.Order()
		cells := m.Cells()
		block := make([]float64, cells)
		copy(block, answers[offsets[i]:offsets[i]+cells])
		transform.WHT(block)
		twoK := float64(int64(1) << uint(k))
		// Invert the marginal→coefficient map: θ_β = 2^{k/2}·block/2^{d−k}
		// · 2^{d/2-k} … plainly: T_β = 2^{k/2}·block, θ_β = T_β/2^{d−k}·…
		// From (Cα)_γ = 2^{d/2−k} Σ_β (−1)^{⟨β,γ⟩}θ_β and WHT inversion:
		// θ_β = T_β / (2^k·2^{d/2−k}) = 2^{k/2}·block_β·2^{k−d/2}/2^k.
		coefScale := math.Sqrt(twoK) / (twoK * (sqrtN / twoK))
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			theta := coefScale * block[bits.CellIndex(m.Alpha, beta)]
			if prev, ok := seen[beta]; ok {
				if math.Abs(prev-theta) > tol {
					seen[beta] = math.Inf(1)
				}
			} else {
				seen[beta] = theta
			}
		})
	}
	for _, v := range seen {
		if math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// RoundNonNegativeInts clamps negative entries to zero and rounds to the
// nearest integer — the post-processing of the concluding remarks for
// materialised base counts. Returns a new slice.
func RoundNonNegativeInts(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		out[i] = math.Round(v)
	}
	return out
}
