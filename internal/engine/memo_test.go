package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bits"
	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/vector"
)

func sealedX(rng *rand.Rand, d int) *vector.Blocked {
	x := vector.FromDense(testX(rng, d))
	x.Seal()
	return x
}

func sameRelease(a, b *Release) bool {
	if len(a.Answers) != len(b.Answers) || math.Float64bits(a.TotalVariance) != math.Float64bits(b.TotalVariance) {
		return false
	}
	for i := range a.Answers {
		if math.Float64bits(a.Answers[i]) != math.Float64bits(b.Answers[i]) {
			return false
		}
	}
	return true
}

// measureAnswers runs one traced release and returns it with the measure
// span's answers annotation.
func measureAnswers(t *testing.T, w *marginal.Workload, x *vector.Blocked, cfg Config) (*Release, string) {
	t.Helper()
	tr := telemetry.NewTrace(telemetry.NewRegistry(), "memo", false)
	rel, err := New(Options{Workers: 2}).RunVector(telemetry.ContextWithTrace(context.Background(), tr), w, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Tree().Spans {
		if sp.Name == "measure" {
			return rel, sp.Attrs["answers"]
		}
	}
	t.Fatal("no measure span")
	return nil, ""
}

// TestMeasureMemo: over a sealed vector the second release of a plan reuses
// the first one's exact answers (and says so on the measure span); an
// unsealed vector and the Identity strategy always compute them.
func TestMeasureMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 8
	w := marginal.AllKWay(d, 1)
	x := sealedX(rng, d)
	plain := x.Clone()
	for _, c := range []struct {
		st   strategy.Strategy
		x    *vector.Blocked
		want [2]string
	}{
		{strategy.Fourier{}, x, [2]string{"computed", "memo"}},
		{strategy.Workload{}, x, [2]string{"computed", "memo"}},
		{strategy.Fourier{}, plain, [2]string{"computed", "computed"}},
		{strategy.Identity{}, x, [2]string{"computed", "computed"}},
	} {
		before := x.Memo().Stats()
		for i, seed := range []int64{1, 2} {
			cfg := Config{Strategy: c.st, Budgeting: OptimalBudget, Privacy: pureParams(0.5 * float64(i+1)), Seed: seed}
			got, how := measureAnswers(t, w, c.x, cfg)
			if how != c.want[i] {
				t.Fatalf("%s run %d: answers=%q, want %q", c.st.Name(), i, how, c.want[i])
			}
			want, err := New(Options{Workers: 1}).RunVector(context.Background(), w, plain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRelease(got, want) {
				t.Fatalf("%s run %d: release differs from the one over the unsealed copy", c.st.Name(), i)
			}
		}
		if _, ok := c.st.(strategy.Identity); ok {
			if after := x.Memo().Stats(); after != before {
				t.Fatalf("Identity touched the memo: %+v -> %+v", before, after)
			}
		}
	}
	if ms := plain.Memo().Stats(); ms != (vector.MemoStats{}) {
		t.Fatalf("unsealed vector has memo stats %+v", ms)
	}
}

// TestMeasureMemoBound: however many plans run over one sealed vector, the
// memo never holds more than Len()/4 floats.
func TestMeasureMemoBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 8
	x := sealedX(rng, d)
	limit := x.Len() / 4
	stored := 0
	for a := 1; a < 1<<uint(d); a += 7 {
		w := marginal.MustWorkload(d, []bits.Mask{bits.Mask(a)})
		for _, st := range []strategy.Strategy{strategy.Fourier{}, strategy.Workload{}} {
			cfg := Config{Strategy: st, Privacy: pureParams(1), Seed: int64(a)}
			if _, err := New(Options{Workers: 1}).RunVector(context.Background(), w, x, cfg); err != nil {
				t.Fatal(err)
			}
			ms := x.Memo().Stats()
			if ms.Floats > limit {
				t.Fatalf("memo holds %d floats, bound %d", ms.Floats, limit)
			}
			if w.TotalCells() <= limit {
				stored += w.TotalCells()
			}
		}
	}
	if stored <= limit {
		t.Fatalf("only %d floats offered; the bound %d was never exercised", stored, limit)
	}
}

// TestMeasureMemoConcurrent: concurrent releases over one sealed vector
// (run under -race) all match serial releases over an unsealed copy.
func TestMeasureMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 9
	w := marginal.AllKWay(d, 2)
	x := sealedX(rng, d)
	plain := x.Clone()
	strategies := []strategy.Strategy{strategy.Fourier{}, strategy.Workload{}}
	const goroutines, perG = 6, 3
	want := make(map[[2]int]*Release)
	for si, st := range strategies {
		for seed := 0; seed < goroutines*perG; seed++ {
			rel, err := New(Options{Workers: 1}).RunVector(context.Background(), w, plain, Config{
				Strategy: st, Privacy: pureParams(1), Seed: int64(seed),
			})
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{si, seed}] = rel
		}
	}
	cache := NewPlanCache(0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seed := g*perG + i
				si := seed % len(strategies)
				rel, err := New(Options{Workers: 2, Shards: 2, Cache: cache}).RunVector(context.Background(), w, x, Config{
					Strategy: strategies[si], Privacy: pureParams(1), Seed: int64(seed),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRelease(rel, want[[2]int{si, seed}]) {
					t.Errorf("goroutine %d seed %d: release differs from the serial one", g, seed)
				}
			}
		}(g)
	}
	wg.Wait()
	if ms := x.Memo().Stats(); ms.Hits+ms.Misses != goroutines*perG || ms.Hits == 0 {
		t.Fatalf("memo stats %+v after %d releases", ms, goroutines*perG)
	}
}
