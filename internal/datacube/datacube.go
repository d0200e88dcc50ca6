// Package datacube models the object in the paper's title: the lattice of
// all marginals (cuboids) of a relation, and the OLAP operations over a
// released cube.
//
// A cuboid is a marginal over a subset of the schema's attributes; the set
// of cuboids ordered by attribute-set inclusion forms the datacube lattice.
// The package holds no mechanism: a cube of order ≤ m is just the marginal
// workload Lattice.Workload, released by the same three steps as any other
// workload (see repro.ReleaseCube, or a repro.Releaser built over that
// workload). Released wraps such a release — weighted-L2 consistency makes
// its cuboids mutually consistent, so any roll-up of a released child
// cuboid reproduces its released ancestor exactly — and navigates it with
// Cuboid, RollUp, Slice and Dice, which is what makes the released cube
// usable by downstream OLAP tooling.
package datacube

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/marginal"
)

// Cuboid identifies one lattice node by its attribute index set (sorted).
type Cuboid struct {
	Attrs []int
	Mask  bits.Mask
}

// Lattice is the datacube lattice over a schema, restricted to cuboids of
// at most MaxOrder attributes (the full lattice is exponential in the
// attribute count; low-order cubes are the practical release target, as in
// the paper's workloads).
type Lattice struct {
	Schema   *dataset.Schema
	MaxOrder int
	Cuboids  []Cuboid
	// index maps an attribute mask to its cuboid position.
	index map[bits.Mask]int
}

// NewLattice enumerates the cuboids of order ≤ maxOrder in level order
// (apex first), each level in lexicographic attribute order.
func NewLattice(s *dataset.Schema, maxOrder int) (*Lattice, error) {
	if maxOrder < 0 || maxOrder > len(s.Attrs) {
		return nil, fmt.Errorf("datacube: max order %d out of range [0,%d]", maxOrder, len(s.Attrs))
	}
	l := &Lattice{Schema: s, MaxOrder: maxOrder, index: map[bits.Mask]int{}}
	n := len(s.Attrs)
	for k := 0; k <= maxOrder; k++ {
		combos := combinations(n, k)
		for _, c := range combos {
			mask := s.MaskOf(c...)
			l.index[mask] = len(l.Cuboids)
			l.Cuboids = append(l.Cuboids, Cuboid{Attrs: c, Mask: mask})
		}
	}
	return l, nil
}

func combinations(n, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	if k > n {
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
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Workload returns the lattice's cuboids as a marginal workload.
func (l *Lattice) Workload() *marginal.Workload {
	alphas := make([]bits.Mask, len(l.Cuboids))
	for i, c := range l.Cuboids {
		alphas[i] = c.Mask
	}
	return marginal.MustWorkload(l.Schema.Dim(), alphas)
}

// Find returns the cuboid index for an attribute set, or -1.
func (l *Lattice) Find(attrs ...int) int {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	mask := l.Schema.MaskOf(sorted...)
	if i, ok := l.index[mask]; ok {
		return i
	}
	return -1
}

// Parents returns the indices of the direct ancestors (one attribute
// removed) of cuboid i that exist in the lattice.
func (l *Lattice) Parents(i int) []int {
	c := l.Cuboids[i]
	var out []int
	for drop := range c.Attrs {
		rest := make([]int, 0, len(c.Attrs)-1)
		rest = append(rest, c.Attrs[:drop]...)
		rest = append(rest, c.Attrs[drop+1:]...)
		if p := l.Find(rest...); p >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// Children returns the indices of the direct descendants (one attribute
// added) of cuboid i that exist in the lattice.
func (l *Lattice) Children(i int) []int {
	c := l.Cuboids[i]
	var out []int
	has := make(map[int]bool, len(c.Attrs))
	for _, a := range c.Attrs {
		has[a] = true
	}
	for a := range l.Schema.Attrs {
		if has[a] {
			continue
		}
		ext := append(append([]int(nil), c.Attrs...), a)
		if ch := l.Find(ext...); ch >= 0 {
			out = append(out, ch)
		}
	}
	return out
}

// Released is a private datacube: noisy, mutually consistent cuboids.
type Released struct {
	Lattice *Lattice
	// Tables[i] is the cuboid's cell array, indexed like
	// bits.CellIndex(cuboid.Mask, ·).
	Tables [][]float64
	// CellVariance[i] is the pre-consistency per-cell noise variance.
	CellVariance []float64
	// TotalVariance is the analytic mechanism objective.
	TotalVariance float64
}

// Cuboid returns the released table for an attribute set.
func (r *Released) Cuboid(attrs ...int) ([]float64, error) {
	i := r.Lattice.Find(attrs...)
	if i < 0 {
		return nil, fmt.Errorf("datacube: cuboid over %v not in the released lattice", attrs)
	}
	return r.Tables[i], nil
}

// Total returns the (noisy) grand total — the apex cuboid. The order-0
// cuboid is always enumerated first by NewLattice, so the apex is read
// directly rather than through a lookup whose error path would silently
// report 0.
func (r *Released) Total() float64 {
	return r.Tables[0][0]
}

// RollUp aggregates a released cuboid down to a sub-attribute-set, the OLAP
// roll-up. For a consistent release this equals the released cuboid of the
// smaller set (asserted in tests).
func (r *Released) RollUp(from []int, to []int) ([]float64, error) {
	fi := r.Lattice.Find(from...)
	if fi < 0 {
		return nil, fmt.Errorf("datacube: cuboid over %v not released", from)
	}
	toSorted := append([]int(nil), to...)
	sort.Ints(toSorted)
	for _, a := range toSorted {
		found := false
		for _, b := range r.Lattice.Cuboids[fi].Attrs {
			if a == b {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("datacube: %v is not a subset of %v", to, from)
		}
	}
	fromMask := r.Lattice.Cuboids[fi].Mask
	toMask := r.Lattice.Schema.MaskOf(toSorted...)
	cells := r.Tables[fi]
	out := make([]float64, 1<<uint(toMask.Count()))
	fromMask.VisitSubsets(func(cell bits.Mask) {
		out[bits.CellIndex(toMask, cell&toMask)] += cells[bits.CellIndex(fromMask, cell)]
	})
	return out, nil
}

// Slice fixes one attribute of a cuboid to a value and returns the reduced
// table over the remaining attributes (the OLAP slice).
func (r *Released) Slice(attrs []int, fixAttr, fixValue int) ([]float64, []int, error) {
	fi := r.Lattice.Find(attrs...)
	if fi < 0 {
		return nil, nil, fmt.Errorf("datacube: cuboid over %v not released", attrs)
	}
	c := r.Lattice.Cuboids[fi]
	found := false
	for _, a := range c.Attrs {
		if a == fixAttr {
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("datacube: attribute %d not in cuboid %v", fixAttr, attrs)
	}
	s := r.Lattice.Schema
	if fixValue < 0 || fixValue >= s.Attrs[fixAttr].Cardinality {
		return nil, nil, fmt.Errorf("datacube: value %d out of range for attribute %d", fixValue, fixAttr)
	}
	rest := make([]int, 0, len(c.Attrs)-1)
	for _, a := range c.Attrs {
		if a != fixAttr {
			rest = append(rest, a)
		}
	}
	restMask := s.MaskOf(rest...)
	fixMask := s.AttrMask(fixAttr)
	fixBits := bits.Mask(fixValue) << uint(s.Offset(fixAttr))
	cells := r.Tables[fi]
	out := make([]float64, 1<<uint(restMask.Count()))
	c.Mask.VisitSubsets(func(cell bits.Mask) {
		if cell&fixMask != fixBits {
			return
		}
		out[bits.CellIndex(restMask, cell&restMask)] += cells[bits.CellIndex(c.Mask, cell)]
	})
	return out, rest, nil
}

// Dice restricts a cuboid to cells whose attribute values satisfy the
// given per-attribute predicates (nil predicate = keep all values); cells
// failing the predicate are zeroed. Returns a copy.
func (r *Released) Dice(attrs []int, keep map[int]func(value int) bool) ([]float64, error) {
	fi := r.Lattice.Find(attrs...)
	if fi < 0 {
		return nil, fmt.Errorf("datacube: cuboid over %v not released", attrs)
	}
	c := r.Lattice.Cuboids[fi]
	s := r.Lattice.Schema
	cells := r.Tables[fi]
	out := make([]float64, len(cells))
	c.Mask.VisitSubsets(func(cell bits.Mask) {
		idx := bits.CellIndex(c.Mask, cell)
		for _, a := range c.Attrs {
			pred, ok := keep[a]
			if !ok || pred == nil {
				continue
			}
			v := int(cell>>uint(s.Offset(a))) & ((1 << uint(s.Attrs[a].BitWidth())) - 1)
			if !pred(v) {
				return // leave zero
			}
		}
		out[idx] = cells[idx]
	})
	return out, nil
}

// ConsistencyError returns the maximum absolute disagreement between every
// released cuboid and the roll-up of each of its released children — zero
// (to numerical precision) for a consistent release.
func (r *Released) ConsistencyError() float64 {
	worst := 0.0
	for i := range r.Lattice.Cuboids {
		for _, ch := range r.Lattice.Children(i) {
			up, err := r.RollUp(r.Lattice.Cuboids[ch].Attrs, r.Lattice.Cuboids[i].Attrs)
			if err != nil {
				continue
			}
			for ci, v := range r.Tables[i] {
				if d := abs(v - up[ci]); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
