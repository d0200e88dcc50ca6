package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// memoSchema spans 11 bits (2048 cells, a 512-float memo bound): large
// enough that every 2-way release and order-2 cube below fits the memo.
func memoSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 4}, {Name: "b", Cardinality: 3},
		{Name: "c", Cardinality: 2}, {Name: "d", Cardinality: 4},
		{Name: "e", Cardinality: 2}, {Name: "f", Cardinality: 3},
		{Name: "g", Cardinality: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// putRandom installs random integer counts under id and returns a handle.
func putRandom(t testing.TB, s *Store, id string, schema *dataset.Schema, seed int64) *Handle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	counts := make([]float64, schema.DomainSize())
	for i := range counts {
		counts[i] = float64(rng.Intn(20))
	}
	if _, err := s.PutCounts(id, schema, counts, 1); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// memoRun is one release-shaped run over x, flattened to the bits a
// caller sees: every released cell, then every cell variance, then the
// total variance.
type memoRun func(x *vector.Blocked, eps float64, seed int64) ([]float64, error)

func releaseRun(schema *dataset.Schema, st strategy.Strategy, shards int) memoRun {
	return releaseRunK(schema, st, shards, 2)
}

// releaseRunK releases all k-way marginals of the schema.
func releaseRunK(schema *dataset.Schema, st strategy.Strategy, shards, k int) memoRun {
	w := marginal.SchemaKWay(schema, k)
	return func(x *vector.Blocked, eps float64, seed int64) ([]float64, error) {
		rel, err := engine.New(engine.Options{Workers: 2, Shards: shards}).RunVector(context.Background(), w, x, engine.Config{
			Strategy:    st,
			Budgeting:   engine.OptimalBudget,
			Consistency: engine.WeightedL2Consistency,
			Privacy:     noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove},
			Seed:        seed,
		})
		if err != nil {
			return nil, err
		}
		out := append(append([]float64(nil), rel.Answers...), rel.CellVariances...)
		return append(out, rel.TotalVariance), nil
	}
}

func cubeRun(schema *dataset.Schema, st strategy.Strategy, shards int) memoRun {
	return func(x *vector.Blocked, eps float64, seed int64) ([]float64, error) {
		cube, err := datacube.ReleaseBlockedContext(context.Background(), schema, x, 2, datacube.Options{
			Epsilon: eps, Seed: seed, Strategy: st, Workers: 2, Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		var out []float64
		for _, tab := range cube.Tables {
			out = append(out, tab...)
		}
		out = append(out, cube.CellVariance...)
		return append(out, cube.TotalVariance), nil
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMemoBitIdentityMatrix: over a store handle, a release with a cold
// memo and then two with a warm memo at other ε and seeds are each
// bit-identical to the same release over an unsealed copy of the counts —
// for F, Q and Cluster, monolithic and sharded, release and cube. The
// third run catches a hit that lets noise leak back into the memo.
func TestMemoBitIdentityMatrix(t *testing.T) {
	schema := memoSchema(t)
	strategies := []strategy.Strategy{strategy.Fourier{}, strategy.Workload{}, strategy.Cluster{}}
	kinds := []struct {
		name string
		run  func(*dataset.Schema, strategy.Strategy, int) memoRun
	}{{"release", releaseRun}, {"cube", cubeRun}}
	for _, st := range strategies {
		for _, shards := range []int{1, 3} {
			for _, kind := range kinds {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", st.Name(), shards, kind.name), func(t *testing.T) {
					s := memStore(t)
					h := putRandom(t, s, "d", schema, 5)
					defer h.Close()
					ref := h.Vector().Clone()
					run := kind.run(schema, st, shards)
					for i, step := range []struct {
						eps  float64
						seed int64
					}{{1, 7}, {0.25, 99}, {2, 5}} {
						got, err := run(h.Vector(), step.eps, step.seed)
						if err != nil {
							t.Fatal(err)
						}
						want, err := run(ref, step.eps, step.seed)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Fatalf("run %d (ε=%v seed=%d): memoized release differs from the unsealed one", i, step.eps, step.seed)
						}
						ms := h.Vector().Memo().Stats()
						if ms.Misses != 1 || ms.Hits != uint64(i) || ms.Floats == 0 {
							t.Fatalf("run %d: memo stats %+v, want 1 miss, %d hits, resident answers", i, ms, i)
						}
					}
					if ms := ref.Memo().Stats(); ms != (vector.MemoStats{}) {
						t.Fatalf("unsealed copy grew a memo: %+v", ms)
					}
				})
			}
		}
	}
}

// TestMemoAcrossAppend: an append installs a new version with an empty
// memo; the old handle keeps answering over the old counts and the new
// one over the merged counts.
func TestMemoAcrossAppend(t *testing.T) {
	schema := memoSchema(t)
	s := memStore(t)
	oldH := putRandom(t, s, "d", schema, 1)
	defer oldH.Close()
	oldRef := oldH.Vector().Clone()
	run := releaseRun(schema, strategy.Workload{}, 1)
	if _, err := run(oldH.Vector(), 1, 1); err != nil { // warm the old memo
		t.Fatal(err)
	}
	var body strings.Builder
	body.WriteString(`{"schema":[`)
	for i, a := range schema.Attrs {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"name":%q,"cardinality":%d}`, a.Name, a.Cardinality)
	}
	body.WriteString("]}\n[1,2,0,3,1,0,1]\n[0,0,1,2,0,2,0]\n")
	if _, err := s.AppendNDJSON(context.Background(), "d", strings.NewReader(body.String()), IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	newH, _ := s.Get("d")
	defer newH.Close()
	if ms := newH.Vector().Memo().Stats(); ms != (vector.MemoStats{}) {
		t.Fatalf("new version inherited memo state %+v", ms)
	}
	newRef := newH.Vector().Clone()
	for _, c := range []struct {
		name string
		h    *Handle
		ref  *vector.Blocked
	}{{"old", oldH, oldRef}, {"new", newH, newRef}} {
		got, err := run(c.h.Vector(), 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(c.ref, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s handle: release differs from one over its own counts", c.name)
		}
	}
	if ms := oldH.Vector().Memo().Stats(); ms.Hits != 1 {
		t.Fatalf("old handle memo %+v, want the second release to hit", ms)
	}
	a, _ := run(oldH.Vector(), 0.5, 3)
	b, _ := run(newH.Vector(), 0.5, 3)
	if sameBits(a, b) {
		t.Fatal("old and new versions released identical bits; the append was not seen")
	}
}

// TestReleasesLeaveCountsUntouched: after releases of every built-in
// strategy at shards ∈ {1, auto} over a handle, the recomputed content
// fingerprint still equals the one taken at install — the engine never
// writes its input, which both Handle.Vector's read-only contract and the
// answer memo depend on. At d = 17 Identity's 2^17 rows reach the
// auto-sharding threshold, so its auto run takes the sharded path; the
// wavelet strategy refuses to plan that large and runs at d = 11.
func TestReleasesLeaveCountsUntouched(t *testing.T) {
	attrs := make([]dataset.Attribute, 17)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("x%d", i), Cardinality: 2}
	}
	wide, err := dataset.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		schema     *dataset.Schema
		strategies []strategy.Strategy
	}{
		{wide, []strategy.Strategy{
			strategy.Identity{}, strategy.Workload{}, strategy.Fourier{}, strategy.Cluster{},
			strategy.HierarchyMarginal{}, strategy.Sketch{},
		}},
		{memoSchema(t), []strategy.Strategy{strategy.WaveletMarginal{}}},
	}
	s := memStore(t)
	for ci, c := range cases {
		h := putRandom(t, s, fmt.Sprintf("d%d", ci), c.schema, 11)
		defer h.Close()
		for _, st := range c.strategies {
			for _, shards := range []int{1, 0} {
				if _, err := releaseRunK(c.schema, st, shards, 1)(h.Vector(), 1, 2); err != nil {
					t.Fatalf("%s shards=%d: %v", st.Name(), shards, err)
				}
				if got := fingerprintDataset(h.Schema(), h.Vector()); got != h.Fingerprint() {
					t.Fatalf("%s shards=%d: fingerprint %x after release, %x at install", st.Name(), shards, got, h.Fingerprint())
				}
			}
		}
	}
}
