// Package strategy implements Step 1 of the framework: the strategy
// matrices S whose noisy answers z = Sx + ν are recombined into marginal
// answers. Each strategy exposes a Plan — a group-structured description of
// S (feeding Step 2's budgeting), the exact strategy answers S·x, and the
// initial recovery from noisy answers to marginal tables together with the
// per-marginal cell variances (feeding the consistency step and the error
// accounting).
//
// Implemented strategies, mirroring Section 5:
//
//	Identity — S = I, materialise noisy base counts and aggregate ("I").
//	Workload — S = Q, perturb every queried marginal directly ("Q"/"Q+").
//	Fourier  — S = the Fourier coefficients F of the workload ("F"/"F+"),
//	           the strategy of Barak et al. [1].
//	Cluster  — greedy clustered marginals of Ding et al. [6] ("C"/"C+").
//	Sketch   — sparse random projections [5] (point-query demo strategy).
//
// All strategies satisfy the grouping property (Definition 3.1); their
// groups are laid out group-major so the strategy answers can be addressed
// per group without per-row bookkeeping.
//
// Plans speak vector.Blocked on both sides: the contingency vector arrives
// sharded (a dataset-store aggregate, or a single-block view of a dense
// slice) and the strategy answers leave sharded. Strategies that can slice
// their answer rows expose AnswerBlock, the per-block contract the engine's
// sharded measure stage fans out over its worker pool.
package strategy

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/transform"
	"repro/internal/vector"
)

// Plan is the structured description a strategy produces for one workload.
type Plan struct {
	// Strategy is the short name used in the experiment tables (I, Q, F, C).
	Strategy string
	// Specs describe the groups of S in row-major order: group g occupies
	// rows [Σ_{h<g} Count_h, …).
	Specs []budget.Spec
	// TrueAnswers computes S·x from a (possibly sharded) contingency vector,
	// laid out group-major. workers bounds any internal parallelism (0 = all
	// CPUs, 1 = serial) and never changes a single bit of the output.
	TrueAnswers func(x *vector.Blocked, workers int) []float64
	// AnswerBlock, when non-nil, computes strategy rows [lo, hi) of S·x into
	// out (len hi−lo). Contract (relied on by the engine's sharded measure
	// stage): tiling [0, Rows()) with AnswerBlock calls must be bit-identical
	// to TrueAnswers — the same floating-point accumulation per row — so the
	// release never depends on the shard count. Strategies whose answers
	// cannot be sliced per row (the Fourier transform is global) leave this
	// nil and parallelise inside TrueAnswers instead.
	AnswerBlock func(x *vector.Blocked, lo, hi int, out []float64)
	// Recover maps noisy strategy answers (group-major, possibly sharded,
	// with per-group noise variances) to the concatenated workload answers
	// and the per-marginal cell variance (constant within a marginal for
	// every strategy here).
	Recover func(z *vector.Blocked, groupVar []float64) (answers []float64, cellVar []float64, err error)
	// RecoverMarginal, when non-nil, recovers workload marginal i alone:
	// its cell block and per-cell variance. Contract (relied on by the
	// engine's parallel recovery): concatenating RecoverMarginal(0..ℓ−1)
	// must be bit-identical to Recover — same floating-point operations in
	// the same per-cell order — so that the release does not depend on the
	// worker count. Strategies with recovery that cannot be split per
	// marginal leave this nil and recover serially.
	RecoverMarginal func(i int, z *vector.Blocked, groupVar []float64) (cells []float64, cellVar float64, err error)
	// Persist, when non-nil, is the serializable residue of the planning
	// search (see PlanRecord): enough to rebuild this plan via RebuildPlan
	// without re-running it. Strategies whose planning is cheap leave it
	// nil — there is nothing worth persisting.
	Persist *PlanRecord
	// Key, when non-empty, identifies S itself: plans with equal keys
	// compute the same S·x for every x. engine.Planner sets it to the
	// plan-cache key, and the engine's measure stage memoizes exact
	// answers under it on sealed input vectors (vector.Blocked.Seal).
	// Strategies leave it empty, which disables that memoization.
	Key string
}

// Answers is TrueAnswers over a dense vector, serially — the convenience
// form for tests and small callers.
func (p *Plan) Answers(x []float64) []float64 {
	return p.TrueAnswers(vector.FromDense(x), 1)
}

// RecoverDense is Recover over a dense strategy-answer slice.
func (p *Plan) RecoverDense(z []float64, groupVar []float64) ([]float64, []float64, error) {
	return p.Recover(vector.FromDense(z), groupVar)
}

// Rows returns the total number of strategy rows.
func (p *Plan) Rows() int {
	n := 0
	for _, s := range p.Specs {
		n += s.Count
	}
	return n
}

// GroupOffsets returns the first row index of every group.
func (p *Plan) GroupOffsets() []int {
	out := make([]int, len(p.Specs))
	acc := 0
	for i, s := range p.Specs {
		out[i] = acc
		acc += s.Count
	}
	return out
}

// recoverFromMarginals builds a Plan.Recover as the concatenation of a
// per-marginal recovery function, making the engine's bit-identity contract
// (Recover ≡ concat(RecoverMarginal)) hold by construction. Strategies whose
// full recovery has a faster fused form (identity's single pass) hand-write
// Recover instead and carry the proof obligation themselves.
func recoverFromMarginals(w *marginal.Workload, rm func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error)) func(z *vector.Blocked, groupVar []float64) ([]float64, []float64, error) {
	return func(z *vector.Blocked, groupVar []float64) ([]float64, []float64, error) {
		answers := make([]float64, 0, w.TotalCells())
		cellVar := make([]float64, len(w.Marginals))
		for i := range w.Marginals {
			cells, cv, err := rm(i, z, groupVar)
			if err != nil {
				return nil, nil, err
			}
			answers = append(answers, cells...)
			cellVar[i] = cv
		}
		return answers, cellVar, nil
	}
}

// Strategy plans a workload.
type Strategy interface {
	Name() string
	Plan(w *marginal.Workload) (*Plan, error)
}

// PlanKeyer is implemented by strategies whose plan depends on configuration
// beyond the short Name — the plan cache keys on PlanCacheKey instead so two
// differently configured instances never alias. Strategies without
// configurable planning need not implement it.
type PlanKeyer interface {
	PlanCacheKey() string
}

// ---------------------------------------------------------------------------
// Identity strategy: S = I.

// Identity materialises noisy base counts (S = I) and aggregates them into
// the requested marginals. Its single group makes uniform budgeting optimal,
// as the paper notes.
type Identity struct{}

// Name implements Strategy.
func (Identity) Name() string { return "I" }

// Plan implements Strategy.
func (Identity) Plan(w *marginal.Workload) (*Plan, error) {
	n := 1 << uint(w.D)
	ell := float64(len(w.Marginals))
	specs := []budget.Spec{{Count: n, RowWeight: ell, C: 1}}
	return &Plan{
		Strategy: "I",
		Specs:    specs,
		TrueAnswers: func(x *vector.Blocked, _ int) []float64 {
			if x.Len() != n {
				panic(fmt.Sprintf("strategy: identity expects %d cells, got %d", n, x.Len()))
			}
			out := make([]float64, n)
			x.CopyTo(out)
			return out
		},
		// S = I: answer row r is cell r, so a block of rows is a block of
		// cells — the sharded measure stage copies (and perturbs) one block
		// per worker without any full-length scratch.
		AnswerBlock: func(x *vector.Blocked, lo, hi int, out []float64) {
			if x.Len() != n {
				panic(fmt.Sprintf("strategy: identity expects %d cells, got %d", n, x.Len()))
			}
			x.CopyRange(out, lo)
		},
		Recover: func(z *vector.Blocked, groupVar []float64) ([]float64, []float64, error) {
			if z.Len() != n || len(groupVar) != 1 {
				return nil, nil, fmt.Errorf("strategy: identity recover got %d answers, %d variances", z.Len(), len(groupVar))
			}
			answers := w.EvalSinglePassVector(z)
			cellVar := make([]float64, len(w.Marginals))
			for i, m := range w.Marginals {
				// Each marginal cell sums 2^{d−k} independent noisy counts.
				cellVar[i] = float64(int64(1)<<uint(w.D-m.Order())) * groupVar[0]
			}
			return answers, cellVar, nil
		},
		// Identity keeps the fused single-pass Recover above instead of
		// recoverFromMarginals — one sweep over 2^d cells beats ℓ sweeps
		// serially (see BenchmarkAblationSinglePassEval) — so it carries the
		// bit-identity proof itself: EvalVector and EvalSinglePassVector both
		// accumulate each output cell over ascending domain indices, making
		// the two paths bit-identical (pinned by the engine's
		// TestParallelDeterminism and TestShardedBitIdentity).
		RecoverMarginal: func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error) {
			if z.Len() != n || len(groupVar) != 1 {
				return nil, 0, fmt.Errorf("strategy: identity recover got %d answers, %d variances", z.Len(), len(groupVar))
			}
			m := w.Marginals[i]
			return m.EvalVector(z), float64(int64(1)<<uint(w.D-m.Order())) * groupVar[0], nil
		},
	}, nil
}

// ---------------------------------------------------------------------------
// Workload strategy: S = Q.

// Workload answers every queried marginal directly (S = Q): one group per
// marginal with unit magnitudes, so non-uniform budgeting splits ε by
// marginal size (the Section 1 worked example).
type Workload struct{}

// Name implements Strategy.
func (Workload) Name() string { return "Q" }

// Plan implements Strategy.
func (Workload) Plan(w *marginal.Workload) (*Plan, error) {
	specs := make([]budget.Spec, len(w.Marginals))
	for i, m := range w.Marginals {
		specs[i] = budget.Spec{Count: m.Cells(), RowWeight: 1, C: 1}
	}
	offsets := w.Offsets()
	rm := func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error) {
		if z.Len() != w.TotalCells() || len(groupVar) != len(w.Marginals) {
			return nil, 0, fmt.Errorf("strategy: workload recover got %d answers, %d variances", z.Len(), len(groupVar))
		}
		m := w.Marginals[i]
		cells := make([]float64, m.Cells())
		z.CopyRange(cells, offsets[i])
		return cells, groupVar[i], nil
	}
	return &Plan{
		Strategy: "Q",
		Specs:    specs,
		TrueAnswers: func(x *vector.Blocked, _ int) []float64 {
			if x.Len() != 1<<uint(w.D) {
				panic(fmt.Sprintf("strategy: workload expects %d cells, got %d", 1<<uint(w.D), x.Len()))
			}
			return w.EvalSinglePassVector(x)
		},
		AnswerBlock: func(x *vector.Blocked, lo, hi int, out []float64) {
			w.EvalRangeVector(x, lo, hi, out)
		},
		Recover:         recoverFromMarginals(w, rm),
		RecoverMarginal: rm,
	}, nil
}

// ---------------------------------------------------------------------------
// Fourier strategy.

// fourierBlockLen picks the scratch blocking for the blocked WHT: 2^15
// cells per block (256 KiB) keeps the per-worker footprint small while the
// cross-block stages stay a vanishing fraction of the butterfly work.
func fourierBlockLen(n int) int {
	const maxBlock = 1 << 15
	if n < maxBlock {
		return n
	}
	return maxBlock
}

// Fourier answers the Fourier coefficients F = ∪{β ⪯ α_i} of the workload
// (Barak et al. [1]) and reconstructs marginals by Theorem 4.1. Every
// coefficient is its own group (the Hadamard rows are dense), with
// C = 2^{−d/2} and recovery weight w_β = Σ_{i: β⪯α_i} 2^{d−‖α_i‖}
// (Lemma 4.2's b_i = 2·w_β).
//
// Planning and recovery read the workload's Fourier index
// (marginal.Workload.Fourier), built once per workload: the weights fold
// over each marginal's support columns, and a marginal recovers by reading
// its columns of z straight into its output block, which one small WHT
// then turns into the table — Σ_i 2^{‖α_i‖} work and no lookups by mask.
type Fourier struct{}

// Name implements Strategy.
func (Fourier) Name() string { return "F" }

// fourierWeights returns w_β = Σ_{i: β⪯α_i} a_i·2^{d−‖α_i‖} per support
// column (a = nil means a = 1), accumulated in ascending marginal order.
func fourierWeights(w *marginal.Workload, a []float64) []float64 {
	fi := w.Fourier()
	weights := make([]float64, len(fi.Support))
	for i, m := range w.Marginals {
		contrib := float64(int64(1) << uint(w.D-m.Order()))
		if a != nil {
			contrib *= a[i]
		}
		for _, c := range fi.Cols[i] {
			weights[c] += contrib
		}
	}
	return weights
}

// Plan implements Strategy.
func (Fourier) Plan(w *marginal.Workload) (*Plan, error) {
	fi := w.Fourier()
	support := fi.Support
	d := w.D
	n := 1 << uint(d)
	cInv := 1 / math.Sqrt(float64(n))

	weights := fourierWeights(w, nil)
	specs := make([]budget.Spec, len(support))
	for i := range support {
		specs[i] = budget.Spec{Count: 1, RowWeight: weights[i], C: cInv}
	}
	// Theorem 4.1 reconstruction reads only the coefficients β ⪯ α_i, in
	// packed-cell order, which is subset-walk order; the per-marginal cell
	// variance is Var((Cα)_γ) = Σ_{β⪯α} (2^{d/2−k})²·Var(z_β) = 2^{d−2k}·Σ Var.
	rm := func(i int, z *vector.Blocked, groupVar []float64) ([]float64, float64, error) {
		if z.Len() != len(support) || len(groupVar) != len(support) {
			return nil, 0, fmt.Errorf("strategy: fourier recover got %d answers, %d variances", z.Len(), len(groupVar))
		}
		cols := fi.Cols[i]
		cells := make([]float64, len(cols))
		sum := 0.0
		for p, c := range cols {
			cells[p] = z.At(int(c))
			sum += groupVar[c]
		}
		transform.MarginalFromPacked(d, cells)
		rCoefSq := math.Pow(2, float64(d-2*w.Marginals[i].Order()))
		return cells, rCoefSq * sum, nil
	}
	return &Plan{
		Strategy: "F",
		Specs:    specs,
		// The Walsh–Hadamard transform is global — answer rows cannot be
		// sliced per block — so AnswerBlock stays nil and the sharding
		// happens inside: the scratch copy of x is itself blocked (no
		// contiguous 2^d slice) and the butterfly stages fan out over the
		// worker pool, bit-identical to the serial transform.
		TrueAnswers: func(x *vector.Blocked, workers int) []float64 {
			if x.Len() != n {
				panic(fmt.Sprintf("strategy: fourier expects %d cells, got %d", n, x.Len()))
			}
			scratch := x.CloneBlockLen(fourierBlockLen(n))
			transform.WHTBlocked(scratch, workers)
			out := make([]float64, len(support))
			for i, b := range support {
				out[i] = scratch.At(int(b))
			}
			return out
		},
		Recover:         recoverFromMarginals(w, rm),
		RecoverMarginal: rm,
	}, nil
}
