package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/consistency"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
)

// run is the serial, uncached single-call form of the pipeline the tests
// below exercise end to end.
func run(w *marginal.Workload, x []float64, cfg Config) (*Release, error) {
	return New(Options{Workers: 1}).Run(w, x, cfg)
}

func allStrategies() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.Identity{}, strategy.Workload{}, strategy.Fourier{}, strategy.Cluster{},
	}
}

func TestRunAllStrategiesProduceAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	for _, s := range allStrategies() {
		for _, b := range []Budgeting{UniformBudget, OptimalBudget} {
			rel, err := run(w, x, Config{
				Strategy: s, Budgeting: b, Privacy: pureParams(1), Seed: 7,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name(), b, err)
			}
			if len(rel.Answers) != w.TotalCells() {
				t.Fatalf("%s: %d answers, want %d", s.Name(), len(rel.Answers), w.TotalCells())
			}
			if rel.TotalVariance <= 0 || math.IsNaN(rel.TotalVariance) {
				t.Fatalf("%s: bad total variance %v", s.Name(), rel.TotalVariance)
			}
		}
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	cfg := Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget, Privacy: pureParams(0.5), Seed: 11}
	a, err := run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			t.Fatal("same seed must reproduce the release")
		}
	}
	cfg.Seed = 12
	c, err := run(w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Answers {
		if a.Answers[i] != c.Answers[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestOptimalBudgetNeverWorseAnalytically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 6
	x := testX(rng, d)
	for _, w := range []*marginal.Workload{
		marginal.AllKWay(d, 1),
		marginal.AllKWay(d, 2),
		marginal.MustWorkload(d, []bits.Mask{0b000001, 0b001111, 0b110011}),
	} {
		for _, s := range allStrategies() {
			uni, err := run(w, x, Config{Strategy: s, Budgeting: UniformBudget, Privacy: pureParams(1), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := run(w, x, Config{Strategy: s, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if opt.TotalVariance > uni.TotalVariance*(1+1e-9) {
				t.Fatalf("%s: optimal variance %v worse than uniform %v", s.Name(), opt.TotalVariance, uni.TotalVariance)
			}
		}
	}
}

func TestRunIsUnbiasedEmpirically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 4
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	truth := w.Eval(x)
	for _, s := range []strategy.Strategy{strategy.Workload{}, strategy.Fourier{}} {
		const trials = 3000
		sums := make([]float64, len(truth))
		for tr := 0; tr < trials; tr++ {
			rel, err := run(w, x, Config{Strategy: s, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: int64(tr)})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range rel.Answers {
				sums[i] += v
			}
		}
		for i := range sums {
			mean := sums[i] / trials
			tolBias := 4 * math.Sqrt(64/float64(trials)) // generous CI given var ≲ 64
			if math.Abs(mean-truth[i]) > tolBias+1 {
				t.Fatalf("%s cell %d: mean %v vs truth %v", s.Name(), i, mean, truth[i])
			}
		}
	}
}

func TestConsistencyModesProduceConsistentOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 4
	x := testX(rng, d)
	w := marginal.MustWorkload(d, []bits.Mask{0b0011, 0b0110, 0b1100})
	for _, mode := range []Consistency{L2Consistency, WeightedL2Consistency, L1Consistency, LInfConsistency} {
		rel, err := run(w, x, Config{
			Strategy: strategy.Workload{}, Budgeting: OptimalBudget,
			Consistency: mode, Privacy: pureParams(0.5), Seed: 9,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !consistency.IsConsistent(w, rel.Answers, 1e-6) {
			t.Fatalf("%v output inconsistent", mode)
		}
	}
}

func TestIdentityOutputAlreadyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	rel, err := run(w, x, Config{Strategy: strategy.Identity{}, Budgeting: UniformBudget, Privacy: pureParams(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !consistency.IsConsistent(w, rel.Answers, 1e-6) {
		t.Fatal("identity-strategy marginals must be consistent by construction")
	}
}

func TestPrivacyAccountingGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 4
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	if _, err := run(w, x, Config{Strategy: strategy.Workload{}, Privacy: noise.Params{Epsilon: 0}}); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := run(w, x, Config{Privacy: pureParams(1)}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := run(w, x[:3], Config{Strategy: strategy.Workload{}, Privacy: pureParams(1)}); err == nil {
		t.Error("short data vector accepted")
	}
}

func TestGaussianMechanismRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := 5
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	p := noise.Params{Type: noise.ApproxDP, Epsilon: 1, Delta: 1e-5, Neighbor: noise.AddRemove}
	for _, s := range allStrategies() {
		rel, err := run(w, x, Config{Strategy: s, Budgeting: OptimalBudget, Privacy: p, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(rel.Answers) != w.TotalCells() {
			t.Fatalf("%s: wrong answer count", s.Name())
		}
	}
}

func TestErrorDecreasesWithEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	truth := w.Eval(x)
	measure := func(eps float64) float64 {
		total := 0.0
		const trials = 30
		for tr := 0; tr < trials; tr++ {
			rel, err := run(w, x, Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget, Privacy: pureParams(eps), Seed: int64(tr)})
			if err != nil {
				t.Fatal(err)
			}
			total += marginal.RelativeError(truth, rel.Answers)
		}
		return total / trials
	}
	if lo, hi := measure(1.0), measure(0.1); lo >= hi {
		t.Fatalf("error at ε=1 (%v) should be below ε=0.1 (%v)", lo, hi)
	}
}

func TestClusterBeatsWorkloadOnOverlappingQ1(t *testing.T) {
	// On Q1-style workloads the clustering can answer several 1-way
	// marginals from one material marginal; analytically its optimal-budget
	// variance should not exceed the Q strategy's by much, and in the
	// paper's experiments it wins. Check at least non-inferiority here on a
	// small overlapping workload.
	rng := rand.New(rand.NewSource(10))
	d := 6
	x := testX(rng, d)
	w := marginal.AllKWay(d, 1)
	q, err := run(w, x, Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := run(w, x, Config{Strategy: strategy.Cluster{}, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalVariance > q.TotalVariance*3 {
		t.Fatalf("cluster variance %v far worse than workload %v", c.TotalVariance, q.TotalVariance)
	}
}

func BenchmarkRunFourierOptimalD10Q2(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	d := 10
	x := testX(rng, d)
	w := marginal.AllKWay(d, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(w, x, Config{Strategy: strategy.Fourier{}, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQueryWeightsFlowThroughRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := 6
	x := testX(rng, d)
	w := marginal.MustWorkload(d, []bits.Mask{0b000011, 0b111100})
	a := []float64{100, 0.01}
	plain, err := run(w, x, Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := run(w, x, Config{Strategy: strategy.Workload{}, Budgeting: OptimalBudget, Privacy: pureParams(1), Seed: 1, QueryWeights: a})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.CellVariances[0] >= plain.CellVariances[0] {
		t.Fatalf("weighting marginal 0 must reduce its variance: %v vs %v",
			weighted.CellVariances[0], plain.CellVariances[0])
	}
	if weighted.CellVariances[1] <= plain.CellVariances[1] {
		t.Fatalf("deprioritised marginal should pay more variance: %v vs %v",
			weighted.CellVariances[1], plain.CellVariances[1])
	}
	// Bad weights rejected.
	if _, err := run(w, x, Config{Strategy: strategy.Workload{}, Privacy: pureParams(1), QueryWeights: []float64{1}}); err == nil {
		t.Fatal("short query weights accepted")
	}
	// Strategies without WeightedPlanner are rejected cleanly.
	if _, err := run(w, x, Config{Strategy: strategy.HierarchyMarginal{}, Privacy: pureParams(1), QueryWeights: []float64{1, 1}}); err == nil {
		t.Fatal("unweightable strategy accepted query weights")
	}
}
