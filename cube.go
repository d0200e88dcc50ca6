package repro

import (
	"context"
	"fmt"

	"repro/internal/datacube"
	"repro/internal/synth"
	"repro/internal/vector"
)

// CubeRelease is a private datacube: noisy, mutually consistent cuboids
// navigable with the OLAP operations Cuboid, RollUp, Slice and Dice.
type CubeRelease = datacube.Released

// CubeLattice is the cuboid lattice of a released datacube.
type CubeLattice = datacube.Lattice

// ReleaseCube privately materialises every cuboid (marginal) of the table
// with at most maxOrder attributes. The released cuboids are mutually
// consistent: rolling a child cuboid up always reproduces its released
// ancestor exactly, so the cube behaves like a real OLAP cube downstream.
//
// A cube is the marginal workload of its cuboid lattice, so this is a thin
// wrapper over a throwaway Releaser for that workload; every Options field
// applies as it does to Release, except SkipConsistency, which a cube
// refuses with ErrInvalidOption.
func ReleaseCube(t *Table, maxOrder int, o Options) (*CubeRelease, error) {
	if t == nil || t.Schema == nil {
		return nil, fmt.Errorf("%w: nil table or schema", ErrInvalidOption)
	}
	x, err := t.Vector()
	if err != nil {
		return nil, err
	}
	return ReleaseCubeBlockedContext(context.Background(), t.Schema, vector.FromDense(x), maxOrder, o)
}

// ReleaseCubeBlockedContext is ReleaseCube for callers holding the
// aggregated contingency vector in sharded form (a dataset-store
// aggregate): the cube runs without the vector ever being gathered into
// one dense slice, bit-identical to the table path over the same cells.
// Cancellation aborts the release engine mid-run.
func ReleaseCubeBlockedContext(ctx context.Context, schema *Schema, counts *BlockedVector, maxOrder int, o Options) (*CubeRelease, error) {
	if o.SkipConsistency {
		return nil, fmt.Errorf("%w: a cube promises mutually consistent cuboids; SkipConsistency is not allowed", ErrInvalidOption)
	}
	if schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrInvalidOption)
	}
	l, err := datacube.NewLattice(schema, maxOrder)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	r, err := NewReleaser(schema, l.Workload(), o.releaserOptions()...)
	if err != nil {
		return nil, err
	}
	res, err := r.ReleaseBlocked(ctx, counts, o.spec())
	if err != nil {
		return nil, err
	}
	// The release's tables are in lattice order: cuboid i is table i.
	cube := &CubeRelease{
		Lattice:       l,
		Tables:        make([][]float64, len(res.Tables)),
		CellVariance:  make([]float64, len(res.Tables)),
		TotalVariance: res.TotalVariance,
	}
	for i, t := range res.Tables {
		cube.Tables[i] = t.Cells
		cube.CellVariance[i] = t.Variance
	}
	return cube, nil
}

// SyntheticData converts a consistent release into row-level synthetic
// microdata: the release's Fourier coefficients are materialised as an
// estimated contingency vector, clamped and rounded to non-negative integer
// counts (the post-processing of the paper's concluding remarks), and
// sampled back into tuples under the schema. Post-processing adds no
// privacy cost.
//
// The release must have been produced with consistency enabled (the
// default); SkipConsistency releases carry no coefficients to materialise.
func SyntheticData(s *Schema, w *Workload, res *Result, seed int64) (*Table, error) {
	rel, err := ReleaseVectorCoefficients(s, w, res)
	if err != nil {
		return nil, err
	}
	counts := synth.RoundToCounts(rel)
	tab, _ := synth.SampleTuples(s, counts, seed)
	return tab, nil
}

// ReleaseVectorCoefficients reconstructs the estimated contingency vector
// from a released workload by re-running the (deterministic) consistency
// projection on the released answers and inverting the Fourier transform.
func ReleaseVectorCoefficients(s *Schema, w *Workload, res *Result) ([]float64, error) {
	coeffRes, err := consistencyOf(w, res)
	if err != nil {
		return nil, err
	}
	return synth.MaterializeVector(s.Dim(), coeffRes)
}
