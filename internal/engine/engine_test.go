package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

func testX(rng *rand.Rand, d int) []float64 {
	x := make([]float64, 1<<uint(d))
	for i := range x {
		x[i] = float64(rng.Intn(20))
	}
	return x
}

// TestParallelDeterminism is the engine's core guarantee: the same seed and
// config produce a bit-identical release for every worker count, for every
// strategy, with and without consistency.
func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 8
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	strategies := []strategy.Strategy{
		strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}, strategy.Identity{},
	}
	for _, s := range strategies {
		for _, cons := range []Consistency{NoConsistency, WeightedL2Consistency} {
			cfg := Config{
				Strategy: s, Budgeting: OptimalBudget, Consistency: cons,
				Privacy: pureParams(0.8), Seed: 42,
			}
			ref, err := New(Options{Workers: workerCounts[0]}).Run(w, x, cfg)
			if err != nil {
				t.Fatalf("%s/%v workers=1: %v", s.Name(), cons, err)
			}
			for _, wk := range workerCounts[1:] {
				got, err := New(Options{Workers: wk}).Run(w, x, cfg)
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", s.Name(), cons, wk, err)
				}
				for i := range ref.Answers {
					if math.Float64bits(ref.Answers[i]) != math.Float64bits(got.Answers[i]) {
						t.Fatalf("%s/%v: answer %d differs at %d workers: %v vs %v",
							s.Name(), cons, i, wk, ref.Answers[i], got.Answers[i])
					}
				}
				for i := range ref.CellVariances {
					if math.Float64bits(ref.CellVariances[i]) != math.Float64bits(got.CellVariances[i]) {
						t.Fatalf("%s/%v: cell variance %d differs at %d workers", s.Name(), cons, i, wk)
					}
				}
			}
		}
	}
}

// TestSubstreamSeedSeparation: releases under different master seeds share
// no per-cell noise, even though substream indices coincide.
func TestSubstreamSeedSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	cfg := Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget, Privacy: pureParams(0.5)}
	eng := New(Options{Workers: 4})
	cfg.Seed = 7
	a, err := eng.Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := eng.Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Answers {
		if a.Answers[i] == b.Answers[i] {
			t.Fatalf("cell %d identical under different seeds", i)
		}
	}
}

// TestPlanCacheHitsAndIdenticalOutput: the cache serves repeated configs
// from memory and never changes the release.
func TestPlanCacheHitsAndIdenticalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	cache := NewPlanCache(0)
	cached := New(Options{Workers: 1, Cache: cache})
	plain := New(Options{Workers: 1})
	cfg := Config{
		Strategy: strategy.Cluster{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 5,
	}
	want, err := plain.Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		got, err := cached.Run(w, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Answers {
			if math.Float64bits(want.Answers[i]) != math.Float64bits(got.Answers[i]) {
				t.Fatalf("trial %d: cached release differs at %d", trial, i)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss / 2 hits", st)
	}
	// Plans are privacy-independent, so a different ε reuses the plan — the
	// sweep-amortisation property (one cluster search for a whole ε grid).
	cfg.Privacy = pureParams(0.5)
	if _, err := cached.Run(w, x, cfg); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("changed privacy must still hit the cached plan: %+v", st)
	}
	// A different workload is a different key.
	if _, err := cached.Run(marginal.AllKWay(d, 1), x, cfg); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("changed workload must miss: %+v", st)
	}
}

// TestPlanCacheKeysDistinguishConfiguredStrategies: Cluster{MaxMerges}
// variants must not alias in the cache despite sharing Name() == "C".
func TestPlanCacheKeysDistinguishConfiguredStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	cache := NewPlanCache(0)
	eng := New(Options{Workers: 1, Cache: cache})
	cfg := Config{Budgeting: UniformBudget, Privacy: pureParams(1), Seed: 1}
	cfg.Strategy = strategy.Cluster{}
	full, err := eng.Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = strategy.Cluster{MaxMerges: 1}
	capped, err := eng.Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("capped cluster must not reuse the uncapped plan: %+v", st)
	}
	if len(full.GroupBudgets) == len(capped.GroupBudgets) {
		t.Fatalf("expected different groupings, both have %d groups", len(full.GroupBudgets))
	}
}

// TestPlanCacheEviction: the LRU bound holds.
func TestPlanCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 5
	x := testX(rng, d)
	cache := NewPlanCache(2)
	eng := New(Options{Workers: 1, Cache: cache})
	for _, k := range []int{1, 2, 3} {
		cfg := Config{Strategy: strategy.Workload{}, Privacy: pureParams(1), Seed: 1}
		if _, err := eng.Run(marginal.AllKWay(d, k), x, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, capped at 2", st.Entries)
	}
}

// countingPlanner wraps the default plan stage to count invocations —
// exercising per-stage substitution via NewWithStages.
type countingPlanner struct {
	inner PlanStage
	calls int
}

func (c *countingPlanner) Plan(ctx context.Context, w *marginal.Workload, cfg Config) (*strategy.Plan, error) {
	c.calls++
	return c.inner.Plan(ctx, w, cfg)
}

// zeroMeasurer replaces measurement with the exact (noiseless) answers.
type zeroMeasurer struct{}

func (zeroMeasurer) Measure(ctx context.Context, plan *strategy.Plan, x *vector.Blocked, eta []float64, cfg Config, workers, shards int) (*vector.Blocked, error) {
	return vector.FromDense(plan.TrueAnswers(x, workers)), nil
}

// TestStagesIndividuallyConstructible: each stage can be swapped out without
// touching the others, and the engine composes whatever it is given.
func TestStagesIndividuallyConstructible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	counter := &countingPlanner{inner: Planner{}}
	eng := NewWithStages(Options{Workers: 2}, Stages{
		Plan:    counter,
		Measure: zeroMeasurer{},
	})
	cfg := Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: 3}
	rel, err := eng.Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counter.calls != 1 {
		t.Fatalf("custom plan stage called %d times", counter.calls)
	}
	truth := w.EvalSinglePass(x)
	for i := range truth {
		if rel.Answers[i] != truth[i] {
			t.Fatalf("noiseless measure stage should yield exact answers; cell %d: %v vs %v",
				i, rel.Answers[i], truth[i])
		}
	}
}

// TestDefaultStagesMatchMonolith: stage-by-stage execution equals a direct
// serial composition of the underlying primitives (plan → budget → noise →
// recover), pinning the wrapper-over-stages structure.
func TestDefaultStagesMatchMonolith(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	p := pureParams(0.7)
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget, Privacy: p, Seed: 11}

	rel, err := New(Options{Workers: 1}).Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := strategy.Fourier{}.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := budget.OptimalSpecs(plan.Specs, p)
	if err != nil {
		t.Fatal(err)
	}
	groupVar := budget.SpecVariances(alloc.Eta, p)
	z := plan.Answers(x)
	offsets := plan.GroupOffsets()
	groups := make([]NoiseGroup, len(plan.Specs))
	for g, spec := range plan.Specs {
		groups[g] = NoiseGroup{Start: offsets[g], Count: spec.Count, Eta: alloc.Eta[g]}
	}
	Perturb(z, groups, p, cfg.Seed, 1)
	answers, _, err := plan.RecoverDense(z, groupVar)
	if err != nil {
		t.Fatal(err)
	}
	for i := range answers {
		if math.Float64bits(answers[i]) != math.Float64bits(rel.Answers[i]) {
			t.Fatalf("hand-composed pipeline differs from engine at %d", i)
		}
	}
}

// TestPerturbBlockBoundaries: noise at any row is invariant to how many
// groups precede it in other groups' partitions — i.e. it depends only on
// (seed, group, row). Checked by perturbing the same group laid out at
// different offsets within z.
func TestPerturbBlockBoundaries(t *testing.T) {
	p := pureParams(1)
	const n = noiseBlock + 17 // spans a block boundary
	a := make([]float64, n)
	Perturb(a, []NoiseGroup{{Start: 0, Count: n, Eta: 0.5}}, p, 9, 1)
	b := make([]float64, n+8)
	// Same logical group, shifted start: substream indices are assigned per
	// group position, not per absolute offset, so draws must coincide.
	Perturb(b, []NoiseGroup{{Start: 8, Count: n, Eta: 0.5}}, p, 9, 3)
	for r := 0; r < n; r++ {
		if math.Float64bits(a[r]) != math.Float64bits(b[8+r]) {
			t.Fatalf("row %d noise depends on layout or workers", r)
		}
	}
	// A group's noise must not depend on the sizes of the groups before it
	// (the sharding property): resizing group 0 leaves group 1's draws
	// untouched, and a zero-Count placeholder preserves position identity.
	c := make([]float64, 2*n)
	Perturb(c, []NoiseGroup{{Start: 0, Count: n, Eta: 0.3}, {Start: n, Count: n, Eta: 0.5}}, p, 9, 1)
	d := make([]float64, 2*n)
	Perturb(d, []NoiseGroup{{Start: 0, Count: 5, Eta: 0.3}, {Start: n, Count: n, Eta: 0.5}}, p, 9, 1)
	e := make([]float64, 2*n)
	Perturb(e, []NoiseGroup{{Start: 0, Count: 0, Eta: 0.3}, {Start: n, Count: n, Eta: 0.5}}, p, 9, 2)
	for r := 0; r < n; r++ {
		if math.Float64bits(c[n+r]) != math.Float64bits(d[n+r]) ||
			math.Float64bits(c[n+r]) != math.Float64bits(e[n+r]) {
			t.Fatalf("group-1 noise at row %d depends on group 0's size", r)
		}
	}
}

// TestSerialCutoffsBitIdentical: just below and just above the serial
// cutoffs (perturbParallelMin rows, recoverParallelMin cells), Perturb and
// a full release give Float64bits-identical answers at workers {1, 2, 4}.
// Below the cutoffs every worker count runs the serial path and above it
// the pooled one, so this pins the two paths to each other, and the noise
// of the rows both sizes share to be the same on either side.
func TestSerialCutoffsBitIdentical(t *testing.T) {
	p := pureParams(1)
	// Perturb: 100 one-row groups, as a Fourier release has, then one group
	// holding the rest.
	perturb := func(rows, workers int) []float64 {
		groups := make([]NoiseGroup, 0, 101)
		for g := 0; g < 100; g++ {
			groups = append(groups, NoiseGroup{Start: g, Count: 1, Eta: 0.5})
		}
		groups = append(groups, NoiseGroup{Start: 100, Count: rows - 100, Eta: 0.25})
		z := make([]float64, rows)
		Perturb(z, groups, p, 13, workers)
		return z
	}
	below := perturb(perturbParallelMin-1, 1)
	for _, rows := range []int{perturbParallelMin - 1, perturbParallelMin} {
		for _, workers := range []int{1, 2, 4} {
			z := perturb(rows, workers)
			for r := range below {
				if math.Float64bits(z[r]) != math.Float64bits(below[r]) {
					t.Fatalf("perturb rows=%d workers=%d: row %d differs from the serial run", rows, workers, r)
				}
			}
		}
	}

	// Recover: marginals of 2^13, 2^12, …, 1 cells over d=14 hold
	// recoverParallelMin−1 cells; one more one-attribute marginal crosses.
	const d = 14
	alphas := make([]bits.Mask, 0, d+1)
	for k := d - 1; k >= 0; k-- {
		alphas = append(alphas, bits.Full(k))
	}
	rng := rand.New(rand.NewSource(21))
	x := testX(rng, d)
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: p, Seed: 17}
	for _, w := range []*marginal.Workload{
		marginal.MustWorkload(d, alphas),
		marginal.MustWorkload(d, append(alphas, 1<<(d-1))),
	} {
		var want []float64
		for _, workers := range []int{1, 2, 4} {
			rel, err := New(Options{Workers: workers}).Run(w, x, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = rel.Answers
				continue
			}
			for i := range want {
				if math.Float64bits(rel.Answers[i]) != math.Float64bits(want[i]) {
					t.Fatalf("recover cells=%d workers=%d: cell %d differs from workers=1", w.TotalCells(), workers, i)
				}
			}
		}
	}
	if n := marginal.MustWorkload(d, alphas).TotalCells(); n != recoverParallelMin-1 {
		t.Fatalf("below-cutoff workload has %d cells, want %d", n, recoverParallelMin-1)
	}
}

func TestEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := 4
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	eng := New(Options{})
	if _, err := eng.Run(w, x, Config{Privacy: pureParams(1)}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := eng.Run(w, x, Config{Strategy: strategy.Workload{}, Privacy: noise.Params{}}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := eng.Run(w, x[:3], Config{Strategy: strategy.Workload{}, Privacy: pureParams(1)}); err == nil {
		t.Error("short data vector accepted")
	}
}

// TestRunContextCancellation: a cancelled context aborts the pipeline with
// ctx.Err() and never yields a partial release, at any worker count.
func TestRunContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 8
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(1), Seed: 5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rel, err := New(Options{Workers: workers}).RunContext(ctx, w, x, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if rel != nil {
			t.Fatalf("workers=%d: cancelled run returned a release", workers)
		}
	}

	// An uncancelled context is bit-identical to Run.
	a, err := New(Options{Workers: 3}).RunContext(context.Background(), w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Workers: 3}).Run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Answers {
		if math.Float64bits(a.Answers[i]) != math.Float64bits(b.Answers[i]) {
			t.Fatalf("RunContext differs from Run at cell %d", i)
		}
	}
}

// TestPerturbContextCancelled: PerturbContext surfaces cancellation from
// both the serial and the pooled path.
func TestPerturbContextCancelled(t *testing.T) {
	p := pureParams(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	z := make([]float64, 4*noiseBlock)
	groups := []NoiseGroup{{Start: 0, Count: len(z), Eta: 0.5}}
	if err := PerturbContext(ctx, z, groups, p, 3, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial: want context.Canceled, got %v", err)
	}
	if err := PerturbContext(ctx, z, groups, p, 3, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pooled: want context.Canceled, got %v", err)
	}
	if err := PerturbContext(context.Background(), z, groups, p, 3, 4); err != nil {
		t.Fatalf("background context: %v", err)
	}
}

// TestPerturbAllocsPinned pins the zero-alloc contract of the perturb stage:
// the serial path allocates only one reseedable substream Source,
// independent of the number of noise blocks. A regression here means
// per-block scratch crept back into the inner loop.
func TestPerturbAllocsPinned(t *testing.T) {
	const rows = 1 << 16 // 16 noise blocks
	z := make([]float64, rows)
	groups := []NoiseGroup{
		{Start: 0, Count: rows / 2, Eta: 0.5},
		{Start: rows / 2, Count: rows / 2, Eta: 0.25},
	}
	p := pureParams(1)
	allocs := testing.AllocsPerRun(10, func() {
		Perturb(z, groups, p, 42, 1)
	})
	// Source (splitmix state, rand.Rand, Source) + the FromDense wrapper;
	// anything scaling with block count is a regression.
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("serial Perturb allocates %v per run over %d blocks, want <= %d",
			allocs, rows/noiseBlock, maxAllocs)
	}
}

// BenchmarkPerturb measures the perturb stage over a 2^20-row strategy —
// run with -benchmem: allocs/op must stay flat in the block count.
func BenchmarkPerturb(b *testing.B) {
	const rows = 1 << 20
	z := make([]float64, rows)
	groups := []NoiseGroup{{Start: 0, Count: rows, Eta: 0.5}}
	p := pureParams(1)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers=4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Perturb(z, groups, p, 42, workers)
			}
		})
	}
}
