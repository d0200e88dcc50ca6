package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"testing"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// TestCubeEndpointMatchesEngineOracle pins /v1/cube's released numbers to
// an oracle that shares no code with the serving route: one engine run
// over the cuboid lattice's marginal workload, with the configuration a
// cube release promises — weighted-L2 consistency (mutually consistent
// cuboids) and add/remove neighbours. Every cuboid's cells, its variance
// and the total variance must agree bit for bit, for inline rows and for
// an ingested dataset, across strategies × budgeting × noise × order.
func TestCubeEndpointMatchesEngineOracle(t *testing.T) {
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "people", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "color", Cardinality: 3},
		{Name: "size", Cardinality: 2},
		{Name: "grade", Cardinality: 4},
	})
	tab := &dataset.Table{Schema: schema, Rows: testBody(nil)["rows"].([][]int)}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]strategy.Strategy{
		"fourier":  strategy.Fourier{},
		"workload": strategy.Workload{},
		"cluster":  strategy.Cluster{},
		"identity": strategy.Identity{},
	}
	for _, name := range []string{"fourier", "workload", "cluster", "identity"} {
		for _, uniform := range []bool{false, true} {
			for _, delta := range []float64{0, 1e-6} {
				for _, order := range []int{1, 2} {
					label := fmt.Sprintf("%s/uniform=%v/delta=%v/order=%d", name, uniform, delta, order)
					l, err := datacube.NewLattice(schema, order)
					if err != nil {
						t.Fatal(err)
					}
					w := l.Workload()
					p := noise.Params{Type: noise.PureDP, Epsilon: 1.5, Neighbor: noise.AddRemove}
					if delta > 0 {
						p.Type, p.Delta = noise.ApproxDP, delta
					}
					budgeting := engine.OptimalBudget
					if uniform {
						budgeting = engine.UniformBudget
					}
					want, err := engine.New(engine.Options{Workers: 1}).RunVector(context.Background(), w, vector.FromDense(x), engine.Config{
						Strategy:    strategies[name],
						Budgeting:   budgeting,
						Consistency: engine.WeightedL2Consistency,
						Privacy:     p,
						Seed:        29,
					})
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					over := map[string]any{
						"strategy": name, "uniform_budget": uniform, "delta": delta,
						"max_order": order, "epsilon": 1.5, "seed": 29,
					}
					for source, body := range map[string]map[string]any{
						"inline":  testBody(over),
						"dataset": datasetBody("people", over),
					} {
						rec := post(t, s, "/v1/cube", body)
						if rec.Code != http.StatusOK {
							t.Fatalf("%s/%s: %d %s", label, source, rec.Code, rec.Body.String())
						}
						got := decode[cubeResponse](t, rec)
						checkCubeAgainstOracle(t, label+"/"+source, got, order, l, w.Offsets(), want)
					}
				}
			}
		}
	}
}

func checkCubeAgainstOracle(t *testing.T, label string, got cubeResponse, order int, l *datacube.Lattice, offsets []int, want *engine.Release) {
	t.Helper()
	if got.MaxOrder != order {
		t.Fatalf("%s: max_order %d, want %d", label, got.MaxOrder, order)
	}
	if math.Float64bits(got.TotalVariance) != math.Float64bits(want.TotalVariance) {
		t.Fatalf("%s: total_variance %v, oracle %v", label, got.TotalVariance, want.TotalVariance)
	}
	if len(got.Cuboids) != len(l.Cuboids) {
		t.Fatalf("%s: %d cuboids, lattice has %d", label, len(got.Cuboids), len(l.Cuboids))
	}
	for i, c := range l.Cuboids {
		g := got.Cuboids[i]
		if fmt.Sprint(g.Attrs) != fmt.Sprint(append([]int{}, c.Attrs...)) {
			t.Fatalf("%s: cuboid %d attrs %v, lattice %v", label, i, g.Attrs, c.Attrs)
		}
		if math.Float64bits(g.Variance) != math.Float64bits(want.CellVariances[i]) {
			t.Fatalf("%s: cuboid %d variance %v, oracle %v", label, i, g.Variance, want.CellVariances[i])
		}
		cells := want.Answers[offsets[i] : offsets[i]+len(g.Cells)]
		if len(g.Cells) != 1<<uint(c.Mask.Count()) {
			t.Fatalf("%s: cuboid %d has %d cells, want %d", label, i, len(g.Cells), 1<<uint(c.Mask.Count()))
		}
		for j, v := range g.Cells {
			if math.Float64bits(v) != math.Float64bits(cells[j]) {
				t.Fatalf("%s: cuboid %d cell %d = %v, oracle %v", label, i, j, v, cells[j])
			}
		}
	}
}
