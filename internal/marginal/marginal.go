// Package marginal implements marginals (subcubes of the data cube) as
// linear operators over the contingency vector, following Section 4.1 of the
// paper: for α ∈ {0,1}^d, the marginal Cα maps x ∈ R^{2^d} to the
// 2^{‖α‖}-long table (Cα x)_β = Σ_{γ: γ∧α=β} x_γ.
//
// The package also builds the query workloads of the experimental study
// (Section 5): Q_k (all k-way marginals), Q*_k (k-way plus half the
// (k+1)-way) and Q^a_k (k-way plus the (k+1)-way containing a fixed
// attribute), over either raw binary attributes or an encoded schema.
package marginal

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bits"
	"repro/internal/dataset"
)

// Marginal identifies one marginal by its attribute mask.
type Marginal struct {
	Alpha bits.Mask
}

// Cells returns the number of cells, 2^‖α‖.
func (m Marginal) Cells() int { return 1 << uint(m.Alpha.Count()) }

// Order returns ‖α‖, the dimensionality of the marginal.
func (m Marginal) Order() int { return m.Alpha.Count() }

// Eval computes Cα x directly in one pass over x (O(N)).
func (m Marginal) Eval(x []float64) []float64 {
	out := make([]float64, m.Cells())
	for gamma, v := range x {
		if v == 0 {
			continue
		}
		out[bits.CellIndex(m.Alpha, bits.Mask(gamma)&m.Alpha)] += v
	}
	return out
}

// Rows materialises the explicit 2^‖α‖ × 2^d query matrix of the marginal.
// Only for small d (tests and explicit-matrix strategies).
func (m Marginal) Rows(d int) [][]float64 {
	n := 1 << uint(d)
	rows := make([][]float64, m.Cells())
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	for gamma := 0; gamma < n; gamma++ {
		cell := bits.CellIndex(m.Alpha, bits.Mask(gamma)&m.Alpha)
		rows[cell][gamma] = 1
	}
	return rows
}

// Workload is an ordered set of marginals plus the dimension they live in.
//
// A workload is immutable once NewWorkload returns it: only NewWorkload
// writes D and Marginals. That is what lets it derive its Fourier index
// (Fourier) once, on first use, and share it with every plan, Releaser and
// plan-cache entry built over it.
type Workload struct {
	D         int
	Marginals []Marginal

	fourier atomic.Pointer[FourierIndex]
}

// NewWorkload builds a workload from masks, validating against d.
func NewWorkload(d int, alphas []bits.Mask) (*Workload, error) {
	if err := bits.CheckDim(d); err != nil {
		return nil, err
	}
	full := bits.Full(d)
	w := &Workload{D: d, Marginals: make([]Marginal, len(alphas))}
	for i, a := range alphas {
		if !full.Dominates(a) {
			return nil, fmt.Errorf("marginal: mask %v outside dimension %d", a, d)
		}
		w.Marginals[i] = Marginal{Alpha: a}
	}
	return w, nil
}

// MustWorkload panics on invalid input.
func MustWorkload(d int, alphas []bits.Mask) *Workload {
	w, err := NewWorkload(d, alphas)
	if err != nil {
		panic(err)
	}
	return w
}

// Masks returns the marginal masks in order.
func (w *Workload) Masks() []bits.Mask {
	out := make([]bits.Mask, len(w.Marginals))
	for i, m := range w.Marginals {
		out[i] = m.Alpha
	}
	return out
}

// TotalCells returns K = Σ_i 2^{‖α_i‖}, the number of released values.
func (w *Workload) TotalCells() int {
	k := 0
	for _, m := range w.Marginals {
		k += m.Cells()
	}
	return k
}

// FourierSupport returns F = ∪_i {β ⪯ α_i}, the Fourier coefficients the
// workload depends on, in increasing mask order. The slice is the
// workload's shared index (Fourier().Support): callers must not modify it.
func (w *Workload) FourierSupport() []bits.Mask {
	return w.Fourier().Support
}

// FourierIndex lays out the Theorem 4.1 reconstruction of a workload: the
// support F and, for every marginal, where each coefficient it reads sits
// in F. It depends only on the workload, so Workload.Fourier builds it once.
type FourierIndex struct {
	// Support is F = ∪_i {β ⪯ α_i} in increasing mask order.
	Support []bits.Mask
	// Cols[i][p] is the support column of β = bits.CellMask(α_i, p), the
	// coefficient at packed cell p of marginal i. Packing preserves mask
	// order, so every Cols[i] is strictly increasing, and walking it visits
	// the β ⪯ α_i in the order Mask.VisitSubsets does: a sweep over Cols
	// performs each floating-point summation in the order of a subset walk.
	Cols [][]int32
}

// Fourier returns the workload's Fourier index, building it on first use.
// Concurrent first calls may each build one; all but the first published
// are dropped, and every caller sees the same index afterwards.
func (w *Workload) Fourier() *FourierIndex {
	if fi := w.fourier.Load(); fi != nil {
		return fi
	}
	fi := newFourierIndex(w)
	if w.fourier.CompareAndSwap(nil, fi) {
		return fi
	}
	return w.fourier.Load()
}

func newFourierIndex(w *Workload) *FourierIndex {
	support := bits.UnionClosure(w.Masks())
	colOf := make(map[bits.Mask]int32, len(support))
	for c, b := range support {
		colOf[b] = int32(c)
	}
	flat := make([]int32, 0, w.TotalCells())
	cols := make([][]int32, len(w.Marginals))
	for i, m := range w.Marginals {
		lo := len(flat)
		m.Alpha.VisitSubsets(func(beta bits.Mask) {
			flat = append(flat, colOf[beta])
		})
		cols[i] = flat[lo:len(flat):len(flat)]
	}
	return &FourierIndex{Support: support, Cols: cols}
}

// Eval answers every marginal exactly, concatenated in workload order.
func (w *Workload) Eval(x []float64) []float64 {
	out := make([]float64, 0, w.TotalCells())
	for _, m := range w.Marginals {
		out = append(out, m.Eval(x)...)
	}
	return out
}

// EvalSinglePass answers every marginal exactly with one pass over x,
// which is markedly faster for large N with many marginals.
func (w *Workload) EvalSinglePass(x []float64) []float64 {
	offsets := w.Offsets()
	out := make([]float64, w.TotalCells())
	for gamma, v := range x {
		if v == 0 {
			continue
		}
		g := bits.Mask(gamma)
		for i, m := range w.Marginals {
			out[offsets[i]+bits.CellIndex(m.Alpha, g&m.Alpha)] += v
		}
	}
	return out
}

// Offsets returns the start index of each marginal's block in the
// concatenated answer vector.
func (w *Workload) Offsets() []int {
	offsets := make([]int, len(w.Marginals))
	acc := 0
	for i, m := range w.Marginals {
		offsets[i] = acc
		acc += m.Cells()
	}
	return offsets
}

// Rows materialises the full explicit query matrix Q (K × 2^d). Small d
// only.
func (w *Workload) Rows() [][]float64 {
	rows := make([][]float64, 0, w.TotalCells())
	for _, m := range w.Marginals {
		rows = append(rows, m.Rows(w.D)...)
	}
	return rows
}

// MeanTrueCell returns the mean |true answer| per cell, the denominator of
// the relative-error metric in Section 5.
func (w *Workload) MeanTrueCell(x []float64) float64 {
	truth := w.EvalSinglePass(x)
	if len(truth) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range truth {
		s += math.Abs(v)
	}
	return s / float64(len(truth))
}

// AllKWay returns Q_k over d raw binary attributes.
func AllKWay(d, k int) *Workload {
	return MustWorkload(d, bits.MasksOfWeight(d, k))
}

// --- Schema-level workloads (Section 5) ---
//
// For encoded schemas a "k-way marginal" aggregates over k original
// attributes, i.e. over the union of their bit masks.

// attrCombinations enumerates k-subsets of {0..n-1} in lexicographic order.
func attrCombinations(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// SchemaKWay builds Q_k over the original attributes of a schema: one
// marginal per k-subset of columns.
func SchemaKWay(s *dataset.Schema, k int) *Workload {
	combos := attrCombinations(len(s.Attrs), k)
	alphas := make([]bits.Mask, len(combos))
	for i, c := range combos {
		alphas[i] = s.MaskOf(c...)
	}
	return MustWorkload(s.Dim(), alphas)
}

// SchemaKWayStar builds Q*_k: all k-way marginals plus the first half of the
// (k+1)-way marginals (the paper says "half of all (k+1)-way marginals";
// we take the lexicographic first half deterministically).
func SchemaKWayStar(s *dataset.Schema, k int) *Workload {
	base := SchemaKWay(s, k)
	next := attrCombinations(len(s.Attrs), k+1)
	half := len(next) / 2
	alphas := base.Masks()
	for _, c := range next[:half] {
		alphas = append(alphas, s.MaskOf(c...))
	}
	return MustWorkload(s.Dim(), alphas)
}

// SchemaKWayAnchored builds Q^a_k: all k-way marginals plus every (k+1)-way
// marginal that includes the fixed attribute index anchor.
func SchemaKWayAnchored(s *dataset.Schema, k, anchor int) *Workload {
	if anchor < 0 || anchor >= len(s.Attrs) {
		panic(fmt.Sprintf("marginal: anchor %d out of range", anchor))
	}
	alphas := SchemaKWay(s, k).Masks()
	for _, c := range attrCombinations(len(s.Attrs), k+1) {
		for _, a := range c {
			if a == anchor {
				alphas = append(alphas, s.MaskOf(c...))
				break
			}
		}
	}
	return MustWorkload(s.Dim(), alphas)
}

// RelativeError computes the Section-5 metric: mean absolute per-cell error
// of noisy versus truth, scaled by the mean true cell magnitude.
func RelativeError(truth, noisy []float64) float64 {
	if len(truth) != len(noisy) {
		panic("marginal: RelativeError length mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	absErr, absTruth := 0.0, 0.0
	for i := range truth {
		absErr += math.Abs(noisy[i] - truth[i])
		absTruth += math.Abs(truth[i])
	}
	if absTruth == 0 {
		return math.Inf(1)
	}
	return absErr / absTruth
}
