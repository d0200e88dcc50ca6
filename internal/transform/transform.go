// Package transform provides the orthonormal transforms the strategy
// matrices of the paper are built from:
//
//   - the Walsh–Hadamard transform (the discrete Fourier transform over the
//     Boolean hypercube, Section 4.1), used by the Fourier strategy of
//     Barak et al. [1];
//   - the 1-D Haar wavelet transform, the strategy of Xiao et al. [23];
//   - the binary-tree hierarchy of Hay et al. [14].
//
// The Hadamard basis is f^α_β = 2^{-d/2}(−1)^{⟨α,β⟩}; with this
// normalisation the transform is orthonormal and an involution, so the
// inverse transform is the transform itself.
package transform

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"runtime"
	"sync"

	"repro/internal/bits"
)

// WHT applies the orthonormal Walsh–Hadamard transform to x in place.
// len(x) must be a power of two. Cost O(N log N). Large transforms fan out
// over all CPUs (WHTWorkers); the output is bit-identical to the serial
// transform at every worker count, so callers need not care.
func WHT(x []float64) { WHTWorkers(x, 0) }

// WHTWorkers is WHT with an explicit worker bound: 0 uses all CPUs, 1
// forces the serial transform. The butterfly network is data-independent —
// every stage performs the same (a+b, a−b) pairs in the same element order
// no matter how they are partitioned — so the result is bit-identical at
// every setting. Small inputs always run serially: below the parallel
// threshold the fork/join overhead exceeds the transform itself.
func WHTWorkers(x []float64, workers int) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("transform: length %d is not a power of two", n))
	}
	if workers <= 0 && n >= whtParallelMin {
		workers = runtime.GOMAXPROCS(0) // only where it can matter: it takes the scheduler lock
	}
	scale := 1 / math.Sqrt(float64(n))
	if workers <= 1 || n < whtParallelMin {
		whtButterflies(x)
		for i := range x {
			x[i] *= scale
		}
		return
	}
	whtButterfliesParallel(x, workers)
	parallelRanges(len(x), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= scale
		}
	})
}

// whtParallelMin is the smallest transform worth parallelising, and
// whtMinSeg the smallest per-worker segment: below these the butterflies
// are cheaper than the goroutine fork/join they would ride on.
const (
	whtParallelMin = 1 << 14
	whtMinSeg      = 1 << 12
)

// whtCacheBlock is the tile the serial butterfly network runs hot in: 2^13
// float64 (64 KiB) stays resident in L2 while all sub-tile stages complete,
// so a 2^20-cell transform streams each tile from memory once instead of
// once per stage.
const whtCacheBlock = 1 << 13

// whtButterflies runs the full in-place butterfly network serially
// (stages h = 1, 2, …, n/2), without the final orthonormal scaling.
//
// The network is data-independent, which licenses two mechanical
// reorderings that keep every element's floating-point expression tree —
// and hence every output bit — exactly that of the naive ascending-h
// triple loop:
//
//   - cache blocking: a stage-h butterfly with h < whtCacheBlock touches
//     only one whtCacheBlock-aligned tile, and its inputs are stage-h/2
//     outputs from that same tile, so running ALL sub-tile stages tile by
//     tile is a topological reorder of the same dataflow graph;
//   - radix-4 unrolling: consecutive stages h and 2h decompose into
//     independent quads {j, j+h, j+2h, j+3h}; computing t0=a+b, t1=a−b,
//     t2=c+d, t3=c−d and then t0±t2, t1±t3 performs the identical adds in
//     the identical order, with half the memory passes.
func whtButterflies(x []float64) {
	n := len(x)
	bl := whtCacheBlock
	if bl > n {
		bl = n
	}
	for lo := 0; lo < n; lo += bl {
		whtButterfliesTile(x[lo : lo+bl])
	}
	// Cross-tile stages h = bl, 2·bl, …, n/2, radix-4 paired with one
	// trailing radix-2 stage when their count is odd.
	h := bl
	for ; h<<1 < n; h <<= 2 {
		h2, h3 := h<<1, h*3
		for i := 0; i < n; i += h << 2 {
			for j := i; j < i+h; j++ {
				a, b, c, d := x[j], x[j+h], x[j+h2], x[j+h3]
				t0, t1 := a+b, a-b
				t2, t3 := c+d, c-d
				x[j], x[j+h], x[j+h2], x[j+h3] = t0+t2, t1+t3, t0-t2, t1-t3
			}
		}
	}
	if h < n {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// whtButterfliesTile runs stages 1 … len(x)/2 inside one cache-resident
// tile, radix-4 unrolled. len(x) must be a power of two.
func whtButterfliesTile(x []float64) {
	n := len(x)
	h := 1
	for ; h<<1 < n; h <<= 2 {
		h2, h3 := h<<1, h*3
		for i := 0; i < n; i += h << 2 {
			for j := i; j < i+h; j++ {
				a, b, c, d := x[j], x[j+h], x[j+h2], x[j+h3]
				t0, t1 := a+b, a-b
				t2, t3 := c+d, c-d
				x[j], x[j+h], x[j+h2], x[j+h3] = t0+t2, t1+t3, t0-t2, t1-t3
			}
		}
	}
	if h < n {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// whtButterfliesParallel splits x into P power-of-two segments. Stages with
// h < seg stay entirely inside one segment (blocks of 2h tile it), so each
// worker runs them locally with no synchronisation — one pass over memory
// it owns. The remaining log₂(P) stages pair whole segments (bit log₂(h)
// is constant inside a segment), so the segment whose base index has that
// bit clear owns the pair and updates both halves; a barrier between
// stages keeps the ascending-h order of the serial network. Every element
// sees the exact serial operation sequence, which is what makes the
// parallel transform bit-identical.
func whtButterfliesParallel(x []float64, workers int) {
	n := len(x)
	p := 1
	for p*2 <= workers && n/(p*2) >= whtMinSeg {
		p *= 2
	}
	if p == 1 {
		whtButterflies(x)
		return
	}
	seg := n / p
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			whtButterflies(x[lo : lo+seg])
		}(w * seg)
	}
	wg.Wait()
	for h := seg; h < n; h <<= 1 {
		for w := 0; w < p; w++ {
			lo := w * seg
			if lo&h != 0 {
				continue // upper partner; its pair's owner updates it
			}
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				for j := lo; j < lo+seg; j++ {
					a, b := x[j], x[j+h]
					x[j], x[j+h] = a+b, a-b
				}
			}(lo)
		}
		wg.Wait()
	}
}

// parallelRanges fans an index range out over a worker pool in contiguous
// chunks (element-wise work only: the callback must not couple indices).
func parallelRanges(n, workers int, f func(lo, hi int)) {
	if workers > n {
		workers = n
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
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// WHTCopy returns the transform of x without modifying it.
func WHTCopy(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	WHT(out)
	return out
}

// HadamardEntry returns f^alpha_beta = 2^{-d/2}·(−1)^{⟨α,β⟩}.
func HadamardEntry(d int, alpha, beta bits.Mask) float64 {
	return alpha.Sign(beta) / math.Sqrt(float64(int64(1)<<uint(d)))
}

// HadamardRow materialises the full 2^d-length Fourier basis vector f^alpha.
// Only use for small d (tests, explicit-matrix paths).
func HadamardRow(d int, alpha bits.Mask) []float64 {
	n := 1 << uint(d)
	out := make([]float64, n)
	scale := 1 / math.Sqrt(float64(n))
	for beta := 0; beta < n; beta++ {
		out[beta] = alpha.Sign(bits.Mask(beta)) * scale
	}
	return out
}

// Haar applies the orthonormal 1-D Haar wavelet transform in place.
// len(x) must be a power of two.
func Haar(x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("transform: length %d is not a power of two", n))
	}
	inv := 1 / math.Sqrt2
	tmp := make([]float64, n)
	for length := n; length > 1; length >>= 1 {
		half := length / 2
		for i := 0; i < half; i++ {
			a, b := x[2*i], x[2*i+1]
			tmp[i] = (a + b) * inv
			tmp[half+i] = (a - b) * inv
		}
		copy(x[:length], tmp[:length])
	}
}

// HaarInverse applies the inverse of Haar in place.
func HaarInverse(x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("transform: length %d is not a power of two", n))
	}
	inv := 1 / math.Sqrt2
	tmp := make([]float64, n)
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		for i := 0; i < half; i++ {
			s, dd := x[i], x[half+i]
			tmp[2*i] = (s + dd) * inv
			tmp[2*i+1] = (s - dd) * inv
		}
		copy(x[:length], tmp[:length])
	}
}

// HaarMatrix materialises the n×n orthonormal Haar transform matrix H such
// that Haar(x) = H·x. n must be a power of two.
func HaarMatrix(n int) [][]float64 {
	if n&(n-1) != 0 {
		panic("transform: HaarMatrix needs power-of-two size")
	}
	rows := make([][]float64, n)
	unit := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range unit {
			unit[i] = 0
		}
		unit[j] = 1
		Haar(unit)
		for i := 0; i < n; i++ {
			if rows[i] == nil {
				rows[i] = make([]float64, n)
			}
			rows[i][j] = unit[i]
		}
	}
	return rows
}

// HaarLevel returns the wavelet level of coefficient index i in an n-long
// transform, used to group rows for noise budgeting: the overall-average
// coefficient is level 0, then detail levels 1..log2(n) from coarsest to
// finest.
func HaarLevel(i int) int {
	if i == 0 {
		return 0
	}
	level := 0
	for v := i; v > 0; v >>= 1 {
		level++
	}
	return level
}

// Hierarchy describes a complete binary-tree strategy over a domain of n
// leaves (n padded to a power of two): every node stores the sum of the
// leaves below it. Rows are ordered level by level from the root (level 0)
// down to the leaves.
type Hierarchy struct {
	N      int // number of leaves (power of two)
	Levels int // log2(N)+1
}

// NewHierarchy builds a hierarchy description for the smallest power of two
// ≥ n leaves.
func NewHierarchy(n int) *Hierarchy {
	if n <= 0 {
		panic("transform: hierarchy needs positive leaf count")
	}
	p := 1
	for p < n {
		p <<= 1
	}
	levels := 1
	for v := p; v > 1; v >>= 1 {
		levels++
	}
	return &Hierarchy{N: p, Levels: levels}
}

// Rows returns the total number of nodes, 2N − 1.
func (h *Hierarchy) Rows() int { return 2*h.N - 1 }

// Answer computes every node sum bottom-up in O(N): index 0 is the root;
// the nodes of level l occupy a contiguous block of 2^l entries.
func (h *Hierarchy) Answer(x []float64) []float64 {
	if len(x) > h.N {
		panic("transform: hierarchy input longer than leaf count")
	}
	out := make([]float64, h.Rows())
	leaves := out[h.N-1:]
	copy(leaves, x)
	for i := h.N - 2; i >= 0; i-- {
		out[i] = out[2*i+1] + out[2*i+2]
	}
	return out
}

// Level returns the tree level (0 = root) of node index i in the heap
// layout used by Answer.
func (h *Hierarchy) Level(i int) int {
	level := 0
	for i > 0 {
		i = (i - 1) / 2
		level++
	}
	return level
}

// RangeDecomposition returns the node indices whose disjoint union covers
// [lo, hi) (half-open leaf range) — the canonical O(log N) dyadic cover used
// by the hierarchical range-query recovery.
func (h *Hierarchy) RangeDecomposition(lo, hi int) []int {
	if lo < 0 || hi > h.N || lo > hi {
		panic(fmt.Sprintf("transform: bad range [%d,%d) over %d leaves", lo, hi, h.N))
	}
	var out []int
	var rec func(node, nodeLo, nodeHi int)
	rec = func(node, nodeLo, nodeHi int) {
		if lo >= nodeHi || hi <= nodeLo {
			return
		}
		if lo <= nodeLo && nodeHi <= hi {
			out = append(out, node)
			return
		}
		mid := (nodeLo + nodeHi) / 2
		rec(2*node+1, nodeLo, mid)
		rec(2*node+2, mid, nodeHi)
	}
	rec(0, 0, h.N)
	return out
}

// MarginalFromPacked evaluates a marginal Cα in place from its Fourier
// coefficients via Theorem 4.1: (Cα x)_γ = 2^{d/2−‖α‖} Σ_{β⪯α}
// (−1)^{⟨β,γ⟩}·θ_β, computed with one small 2^‖α‖ WHT.
//
// On entry packed[bits.CellIndex(α, β)] holds θ_β = ⟨f^β, x⟩ for every
// β ⪯ α; on return packed[bits.CellIndex(α, γ)] holds (Cα x)_γ. len(packed)
// must be 2^‖α‖.
func MarginalFromPacked(d int, packed []float64) {
	k := mathbits.TrailingZeros(uint(len(packed)))
	// The 2^k orthonormal WHT computes 2^{-k/2} Σ_β (−1)^{⟨β,γ⟩} θ_β per
	// packed index; rescale to 2^{d/2−k}·Σ… = 2^{(d-k)/2}·WHT.
	WHT(packed)
	scale := math.Sqrt(float64(int64(1) << uint(d-k)))
	for i := range packed {
		packed[i] *= scale
	}
}
