// Package synth materialises a consistent private release as synthetic
// microdata — the extension sketched in the paper's concluding remarks:
// "it is sometimes required that the query answers correspond to a data set
// in which all counts are integral and non-negative."
//
// Given the consistent Fourier coefficients f̂ produced by the consistency
// step, the estimated contingency vector is x̂ = Σ_β f̂_β·f^β (inverse
// Walsh–Hadamard over the released support). Clamping x̂ to non-negative
// values and apportioning the target total over the largest remainders
// yields an integral, non-negative table whose marginals approximate the
// released ones; SampleTuples turns it back into row-level synthetic data.
//
// Cost model: beyond MaterializeVector's one transform, every step is
// linear. RoundToCounts floors each cell once and finds the winning
// remainders by selection, falling back to a full sort only when a tie
// straddles the boundary. SampleCells shuffles one int32 cell index per
// row; DecodeRows turns those into rows, in their final order, in one
// backing array. SampleTuples is SampleCells followed by DecodeRows, and
// all of them reproduce the historical sort-and-copy implementations bit
// for bit (see oracle_test.go).
//
// Rows need not be decoded at all. A caller that only renders them, as
// the server's /v1/synthetic does, keeps the 4-byte cell index of each row
// and reads its attributes by shift and mask: at the NLTCS shape (16
// attributes) that is 4 bytes per row instead of the 152 a decoded row
// costs (a 24-byte slice header and sixteen 8-byte ints).
package synth

import (
	"cmp"
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/noise"
	"repro/internal/transform"
)

// MaterializeVector reconstructs the estimated contingency vector from
// Fourier coefficients over a d-bit domain: x̂ = H·θ with the unreleased
// coefficients set to zero (their least-squares estimate given no
// observation).
func MaterializeVector(d int, coeff map[bits.Mask]float64) ([]float64, error) {
	if err := bits.CheckDim(d); err != nil {
		return nil, err
	}
	n := 1 << uint(d)
	x := make([]float64, n)
	for beta, v := range coeff {
		if !bits.Full(d).Dominates(beta) {
			return nil, fmt.Errorf("synth: coefficient %v outside dimension %d", beta, d)
		}
		x[beta] = v
	}
	// The Hadamard transform is an involution: applying it to the
	// coefficient vector returns the spatial-domain estimate.
	transform.WHT(x)
	return x, nil
}

// RoundToCounts converts a real-valued estimated vector into non-negative
// integer counts that sum to the nearest integer of the vector's total
// (largest-remainder apportionment after clamping). The result is a valid
// contingency table.
//
// It runs in linear time and floors each cell once: the m units left after
// flooring go to the m largest fractional remainders, found by selecting
// the m-th largest remainder θ rather than sorting them all, and each
// remainder is recovered from the floor the flooring pass stored. When a
// tie at θ straddles the boundary, which of the tied cells wins is decided
// by the same pdqsort order a full sort of the remainders gives, so the
// counts never depend on which path ran.
func RoundToCounts(x []float64) []int64 {
	out := make([]int64, len(x))
	total := 0.0
	var assigned int64
	nfrac := 0
	for i, v := range x {
		if v > 0 {
			total += v
			fl := math.Floor(v)
			out[i] = int64(fl)
			assigned += int64(fl)
			if v > fl {
				nfrac++
			}
		}
	}
	target := int64(math.Round(total))
	if target < 0 {
		target = 0
	}
	if m := target - assigned; m > 0 && nfrac > 0 {
		k := int(min(m, int64(nfrac)))
		apportion(x, out, nfrac, k)
		assigned += int64(k)
	}
	// If clamping removed too much mass relative to the rounded target,
	// top up the largest cells (keeps totals exact).
	for i := 0; assigned < target && len(out) > 0; i = (i + 1) % len(out) {
		out[i]++
		assigned++
	}
	return out
}

// apportion adds one unit to each of the m cells of x with the largest
// fractional remainders (0 < m ≤ nfrac, nfrac the number of cells with a
// non-zero remainder). out holds the floors of x.
func apportion(x []float64, out []int64, nfrac, m int) {
	rem := make([]float64, 0, nfrac)
	for i, v := range x {
		if f := remainder(v, out[i]); f > 0 {
			rem = append(rem, f)
		}
	}
	theta := kthLargest(rem, m)
	atLeast := 0
	for _, f := range rem {
		if f >= theta {
			atLeast++
		}
	}
	if atLeast == m {
		// The winners are exactly the remainders ≥ θ.
		for i, v := range x {
			if remainder(v, out[i]) >= theta {
				out[i]++
			}
		}
		return
	}
	// A tie at θ crosses the boundary: only some tied cells win, and which
	// ones is whatever order a descending sort of (cell, remainder) pairs
	// leaves them in. slices.SortFunc runs the same pdqsort as sort.Slice
	// under an equivalent comparator, so the winners match the historical
	// full sort exactly.
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, 0, nfrac)
	for i, v := range x {
		if f := remainder(v, out[i]); f > 0 {
			fracs = append(fracs, frac{i, f})
		}
	}
	slices.SortFunc(fracs, func(a, b frac) int { return cmp.Compare(b.f, a.f) })
	for _, fr := range fracs[:m] {
		out[fr.idx]++
	}
}

// remainder returns the fractional part of v from fl, the floor
// RoundToCounts stored for it (0 where v is not positive), or 0 where v
// has none or is not positive. v - fl is exactly v - math.Floor(v)
// wherever int64 holds the floor; at and above 2^63, where it does not,
// every double is integral, and the difference is 0 or, from an
// overflowed floor, at least 1.
func remainder(v float64, fl int64) float64 {
	if f := v - float64(fl); f > 0 && f < 1 {
		return f
	}
	return 0
}

// kthLargest returns the k-th largest value of a (1 ≤ k ≤ len(a), no NaN),
// permuting a. It is a deterministic quickselect (median-of-three pivot,
// three-way partition so runs of equal values cost one pass); past a
// logarithmic round budget it sorts what is left, bounding the worst case
// at O(n log n).
func kthLargest(a []float64, k int) float64 {
	t := len(a) - k // the k-th largest sits at ascending index len(a)-k
	lo, hi := 0, len(a)
	for budget := 2 * mathbits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			break
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case t < lt:
			hi = lt
		case t >= gt:
			lo = gt
		default:
			return p
		}
	}
	return a[t]
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// SampleTuples draws row-level synthetic data from integer counts under a
// schema: every unit of count becomes one tuple, emitted in random order.
// Counts on invalid (padding) cells are skipped and reported. It is
// SampleCells followed by DecodeRows.
func SampleTuples(s *dataset.Schema, counts []int64, seed int64) (*dataset.Table, int64) {
	cells, skipped := SampleCells(s, counts, seed)
	return &dataset.Table{Schema: s, Rows: DecodeRows(s, cells)}, skipped
}

// SampleCells draws the rows SampleTuples would, as the packed cell index
// of each row in emitted order (Schema.Decode of entry k is row k), and the
// count skipped on invalid (padding) cells.
//
// The cost is linear in the domain plus the rows emitted, in one
// allocation: one int32 per row, shuffled in place.
func SampleCells(s *dataset.Schema, counts []int64, seed int64) ([]int32, int64) {
	// noise.NewSource(seed) reproduces rand.New(rand.NewSource(seed))
	// bit-for-bit, so the emitted row order is unchanged by routing the
	// shuffle through the sanctioned Source (seedflow invariant); pinned by
	// TestSampleTuplesBitStable.
	rng := noise.NewSource(seed)
	fields := fieldsOf(s)
	padded := false // some attribute leaves codes unused: validity needs checking
	for _, f := range fields {
		padded = padded || f.mask+1 != f.card
	}
	var positive int64
	for _, c := range counts {
		if c > 0 {
			positive += c
		}
	}
	// One entry per emitted row; skipped padding mass only leaves spare
	// capacity behind.
	cells := make([]int32, 0, positive)
	var skipped int64
cell:
	for idx, c := range counts {
		if c <= 0 {
			continue
		}
		if padded {
			for _, f := range fields {
				if idx>>f.shift&f.mask >= f.card {
					skipped += c
					continue cell
				}
			}
		}
		for k := int64(0); k < c; k++ {
			cells = append(cells, int32(idx))
		}
	}
	// The shuffle's swap sequence depends only on the row count, so
	// permuting cell indices permutes rows exactly as shuffling the decoded
	// rows would.
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, skipped
}

// DecodeRows decodes packed cell indices under s into rows, nil when there
// are none. The rows share one backing array of len(cells) × attributes
// ints, each row a capacity-capped view of it (appending to one never
// overwrites its neighbour).
func DecodeRows(s *dataset.Schema, cells []int32) [][]int {
	if len(cells) == 0 {
		return nil
	}
	fields := fieldsOf(s)
	d := len(fields)
	buf := make([]int, len(cells)*d)
	rows := make([][]int, len(cells))
	for k, c := range cells {
		row := buf[k*d : (k+1)*d : (k+1)*d]
		for i := range row {
			row[i] = int(c) >> fields[i].shift & fields[i].mask
		}
		rows[k] = row
	}
	return rows
}

// field locates one attribute in a packed cell index: its code is
// idx>>shift & mask, valid below card.
type field struct {
	shift uint
	mask  int
	card  int
}

func fieldsOf(s *dataset.Schema) []field {
	fields := make([]field, len(s.Attrs))
	for i, a := range s.Attrs {
		fields[i] = field{uint(s.Offset(i)), 1<<uint(a.BitWidth()) - 1, a.Cardinality}
	}
	return fields
}

// MarginalL1 computes the L1 distance between a marginal of the synthetic
// counts and a target table — the fidelity metric for synthetic data.
func MarginalL1(d int, alpha bits.Mask, counts []int64, target []float64) float64 {
	got := make([]float64, 1<<uint(alpha.Count()))
	for idx, c := range counts {
		got[bits.CellIndex(alpha, bits.Mask(idx)&alpha)] += float64(c)
	}
	s := 0.0
	for i := range got {
		s += math.Abs(got[i] - target[i])
	}
	return s
}
