package repro

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/datacube"
)

func retailTable() *Table {
	s := MustSchema([]Attribute{
		{Name: "region", Cardinality: 3},
		{Name: "product", Cardinality: 4},
		{Name: "channel", Cardinality: 2},
	})
	rows := make([][]int, 0, 900)
	for i := 0; i < 900; i++ {
		rows = append(rows, []int{i % 3, (i / 3) % 4, (i / 12) % 2})
	}
	return &Table{Schema: s, Rows: rows}
}

func TestReleaseCubeConsistent(t *testing.T) {
	tab := retailTable()
	cube, err := ReleaseCube(tab, 2, Options{Epsilon: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cube.Lattice.Cuboids) != 1+3+3 {
		t.Fatalf("%d cuboids, want 7", len(cube.Lattice.Cuboids))
	}
	if e := cube.ConsistencyError(); e > 1e-6 {
		t.Fatalf("consistency error %v", e)
	}
	if math.Abs(cube.Total()-900) > 100 {
		t.Fatalf("total %v far from 900", cube.Total())
	}
}

func TestReleaseCubeStrategies(t *testing.T) {
	tab := retailTable()
	for _, k := range []StrategyKind{StrategyFourier, StrategyWorkload, StrategyCluster, StrategyIdentity} {
		cube, err := ReleaseCube(tab, 1, Options{Epsilon: 1, Seed: 3, Strategy: k})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if e := cube.ConsistencyError(); e > 1e-6 {
			t.Fatalf("%v: consistency error %v", k, e)
		}
	}
}

// TestReleaseCubeModifyNeighbors: a cube under the modify-one-tuple
// neighbour model is the Releaser over the lattice workload with
// WithModifyNeighbors — bit for bit, for the table and the blocked entry
// points — and, with sensitivity doubled, carries exactly the variance of
// the add/remove cube at half the budget.
func TestReleaseCubeModifyNeighbors(t *testing.T) {
	tab := retailTable()
	cube, err := ReleaseCube(tab, 2, Options{Epsilon: 1, Seed: 8, ModifyNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := datacube.NewLattice(tab.Schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReleaser(tab.Schema, l.Workload(), WithModifyNeighbors())
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Release(context.Background(), tab, ReleaseSpec{Epsilon: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := ReleaseCubeBlockedContext(context.Background(), tab.Schema, NewBlockedVector(x), 2,
		Options{Epsilon: 1, Seed: 8, ModifyNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*CubeRelease{cube, blocked} {
		if math.Float64bits(got.TotalVariance) != math.Float64bits(want.TotalVariance) {
			t.Fatalf("total variance %v, Releaser %v", got.TotalVariance, want.TotalVariance)
		}
		for i, wt := range want.Tables {
			if math.Float64bits(got.CellVariance[i]) != math.Float64bits(wt.Variance) {
				t.Fatalf("cuboid %d variance %v, Releaser %v", i, got.CellVariance[i], wt.Variance)
			}
			for c, v := range wt.Cells {
				if math.Float64bits(got.Tables[i][c]) != math.Float64bits(v) {
					t.Fatalf("cuboid %d cell %d = %v, Releaser %v", i, c, got.Tables[i][c], v)
				}
			}
		}
	}
	half, err := ReleaseCube(tab, 2, Options{Epsilon: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cube.TotalVariance-half.TotalVariance) > 1e-12*half.TotalVariance {
		t.Fatalf("modify-neighbour cube variance %v, add/remove cube at ε/2 %v", cube.TotalVariance, half.TotalVariance)
	}
	full, err := ReleaseCube(tab, 2, Options{Epsilon: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cube.TotalVariance <= full.TotalVariance {
		t.Fatalf("modify-neighbour cube variance %v not above add/remove %v at the same ε", cube.TotalVariance, full.TotalVariance)
	}
}

// TestReleaseCubeRejectsSkipConsistency: a cube promises mutually
// consistent cuboids, so asking to skip the projection is an invalid
// option on every entry point, not a silently different release.
func TestReleaseCubeRejectsSkipConsistency(t *testing.T) {
	tab := retailTable()
	o := Options{Epsilon: 1, SkipConsistency: true}
	if _, err := ReleaseCube(tab, 1, o); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("ReleaseCube: err %v, want ErrInvalidOption", err)
	}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReleaseCubeBlockedContext(context.Background(), tab.Schema, NewBlockedVector(x), 1, o); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("ReleaseCubeBlockedContext: err %v, want ErrInvalidOption", err)
	}
}

func TestSyntheticDataEndToEnd(t *testing.T) {
	tab := retailTable()
	w := AllKWayMarginals(tab.Schema, 2)
	res, err := Release(tab, w, Options{Epsilon: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := SyntheticData(tab.Schema, w, res, 5)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Count() == 0 {
		t.Fatal("empty synthetic table")
	}
	if math.Abs(float64(syn.Count())-900) > 150 {
		t.Fatalf("synthetic row count %d far from 900", syn.Count())
	}
	// Synthetic rows must be valid tuples.
	for _, row := range syn.Rows {
		for j, v := range row {
			if v < 0 || v >= tab.Schema.Attrs[j].Cardinality {
				t.Fatalf("invalid synthetic value %d for attribute %d", v, j)
			}
		}
	}
	// Its 1-way marginals track the release within the rounding budget.
	truth, err := Release(tab, w, Options{Epsilon: 1e12, SkipConsistency: true, Strategy: StrategyWorkload})
	if err != nil {
		t.Fatal(err)
	}
	synRes, err := Release(syn, w, Options{Epsilon: 1e12, SkipConsistency: true, Strategy: StrategyWorkload})
	if err != nil {
		t.Fatal(err)
	}
	drift := 0.0
	for i := range truth.Answers {
		drift += math.Abs(synRes.Answers[i] - res.Answers[i])
	}
	noise := 0.0
	for i := range truth.Answers {
		noise += math.Abs(res.Answers[i] - truth.Answers[i])
	}
	if drift > 3*noise+float64(len(truth.Answers)) {
		t.Fatalf("synthetic drift %v too large vs mechanism noise %v", drift, noise)
	}
}

func TestReleaseVectorCoefficients(t *testing.T) {
	tab := retailTable()
	w := AllKWayMarginals(tab.Schema, 1)
	res, err := Release(tab, w, Options{Epsilon: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := ReleaseVectorCoefficients(tab.Schema, w, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(xhat) != tab.Schema.DomainSize() {
		t.Fatalf("vector length %d, want %d", len(xhat), tab.Schema.DomainSize())
	}
	total := 0.0
	for _, v := range xhat {
		total += v
	}
	if math.Abs(total-900) > 50 {
		t.Fatalf("materialised total %v far from 900", total)
	}
}
