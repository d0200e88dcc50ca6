package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/bits"
	"repro/internal/budget"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// responseWire is the union of the release, cube and synthetic response
// bodies.
type responseWire struct {
	TotalVariance float64        `json:"total_variance"`
	MaxOrder      int            `json:"max_order"`
	Tables        []marginalWire `json:"tables"`
	Cuboids       []marginalWire `json:"cuboids"`
	Count         int            `json:"count"`
	Rows          [][]int        `json:"rows"`
	Budget        *struct {
		EpsilonSpent float64 `json:"epsilon_spent"`
	} `json:"budget"`
}

type marginalWire struct {
	Attrs    []int     `json:"attrs"`
	Cells    []float64 `json:"cells"`
	Variance float64   `json:"variance"`
}

// stripBudget returns a release-shaped body without its spliced trailing
// budget field: the part a cache hit must reproduce byte for byte.
func stripBudget(body []byte) ([]byte, error) {
	i := bytes.LastIndex(body, []byte(`,"budget":`))
	if i < 0 {
		return nil, fmt.Errorf("response has no budget field: %s", truncate(body))
	}
	return body[:i], nil
}

// quickShape is the per-response check made on every timed response: the
// body is a budget-spliced JSON object with the workload's table or
// cuboid count. Full verification runs over the kept responses.
func quickShape(s spec, body []byte, want map[string]int) error {
	if len(body) < 2 || body[0] != '{' {
		return fmt.Errorf("%s: body is not a JSON object: %s", s.structKey(), truncate(body))
	}
	if _, err := stripBudget(body); err != nil {
		return err
	}
	if s.Kind == kindSynthetic {
		return nil
	}
	if got := bytes.Count(body, []byte(`{"attrs":`)); got != want[s.structKey()] {
		return fmt.Errorf("%s: %d tables, want %d", s.structKey(), got, want[s.structKey()])
	}
	return nil
}

// layerTimes accumulates the replayed layer times of verified misses.
type layerTimes struct {
	plan, allocate, measure, recover, consist time.Duration
	engineRuns                                int
	cube                                      time.Duration
	cubeRuns                                  int
	synth                                     time.Duration
	synthRuns                                 int
}

// accuracy accumulates realized error against exact marginals over
// release and cube responses.
type accuracy struct {
	sse, cells float64 // squared error and cell count
	totalVar   float64 // Σ responses' total_variance
	releases   int
	sumS       float64 // Σ per-response S = Σ_cells reported variance
	sumS2      float64 // Σ per-response S²
}

func (a *accuracy) add(sse, cells, totalVar, s float64) {
	a.sse += sse
	a.cells += cells
	a.totalVar += totalVar
	a.releases++
	a.sumS += s
	a.sumS2 += s * s
}

func (a *accuracy) rmse() float64 { return math.Sqrt(a.sse / a.cells) }

// varianceRatio is Σ err² over Σ reported variance across responses.
func (a *accuracy) varianceRatio() float64 { return a.sse / a.sumS }

// varianceBound is the largest variance ratio the mechanism admits at a
// worst-case false-alarm probability of 1/1000. The derivation, once:
//
//   - Each response reports v, its per-cell noise variance before the
//     consistency step. For the Fourier strategy that step leaves the
//     measured coefficients as they are, so E[err²] = v per cell; for the
//     Workload strategy it is the least-squares projection weighted by the
//     true inverse variances, which can only lower every cell's variance.
//     Either way E[Σ err²] ≤ S, with S = Σ_cells v for the response.
//   - Σ err² = νᵀAν is a positive semi-definite quadratic form in the
//     independent noise draws ν (Laplace, E[ν⁴] = 6σ⁴, or Gaussian,
//     3σ⁴), so Var(νᵀAν) ≤ 5·tr((AΣ)²) ≤ 5·(E[νᵀAν])² ≤ 5·S².
//   - Responses draw independent noise, so the pooled ratio
//     R = Σ err² / Σ S has E[R] ≤ 1 and Var(R) ≤ σ² = 5·Σ S² / (Σ S)².
//   - Cantelli: P(R ≥ 1 + t) ≤ σ²/(σ² + t²), which is 1/1000 at
//     t = σ·√999.
//
// A ratio above the bound means the responses understate their error.
func (a *accuracy) varianceBound() float64 {
	sigma2 := 5 * a.sumS2 / (a.sumS * a.sumS)
	return 1 + math.Sqrt(sigma2*999)
}

// replayer recomputes expected responses through the public layer
// functions, serially, against the benchmark's own copy of the data.
type replayer struct {
	schema *dataset.Schema
	x      []float64 // contingency vector at the current data version
	rows   []int     // encoded cell index of every row, appends included
	cache  *engine.PlanCache
	times  layerTimes
	truths map[string][][]float64 // exact marginals by workload, at this version
}

func newReplayer(schema *dataset.Schema, rows [][]int) (*replayer, error) {
	r := &replayer{schema: schema, x: make([]float64, schema.DomainSize()), cache: engine.NewPlanCache(0)}
	return r, r.add(rows)
}

// add folds rows (the initial table or an append delta) into the data.
func (r *replayer) add(rows [][]int) error {
	for _, row := range rows {
		idx, err := r.schema.Encode(row)
		if err != nil {
			return err
		}
		r.x[idx]++
		r.rows = append(r.rows, idx)
	}
	r.truths = map[string][][]float64{}
	return nil
}

// truth returns the exact marginals of the workload, computed from the
// rows themselves rather than from the contingency vector.
func (r *replayer) truth(key string, w *marginal.Workload) [][]float64 {
	if t, ok := r.truths[key]; ok {
		return t
	}
	out := make([][]float64, len(w.Marginals))
	for i, m := range w.Marginals {
		t := make([]float64, m.Cells())
		for _, idx := range r.rows {
			t[bits.CellIndex(m.Alpha, bits.Mask(idx))]++
		}
		out[i] = t
	}
	r.truths[key] = out
	return out
}

// truthKey names a request's marginal workload, whatever its strategy.
func truthKey(s spec) string {
	if s.Kind == kindCube {
		return fmt.Sprintf("mo%d", s.MaxOrder)
	}
	return fmt.Sprintf("k%d", s.K)
}

func strategyOf(name string) strategy.Strategy {
	if name == "workload" {
		return strategy.Workload{}
	}
	return strategy.Fourier{}
}

func engineConfig(s spec) engine.Config {
	p := noise.Params{Type: noise.PureDP, Epsilon: s.Epsilon, Neighbor: noise.AddRemove}
	if s.Delta > 0 {
		p.Type, p.Delta = noise.ApproxDP, s.Delta
	}
	return engine.Config{
		Strategy:    strategyOf(s.Strategy),
		Budgeting:   engine.OptimalBudget,
		Consistency: engine.WeightedL2Consistency,
		Privacy:     p,
		Seed:        s.Seed,
	}
}

// Timing wrappers around the engine's default stages.
type (
	timedPlan struct {
		d *time.Duration
		engine.Planner
	}
	timedAllocate struct{ d *time.Duration }
	timedMeasure  struct{ d *time.Duration }
	timedRecover  struct{ d *time.Duration }
	timedConsist  struct{ d *time.Duration }
)

func (t timedPlan) Plan(ctx context.Context, w *marginal.Workload, cfg engine.Config) (*strategy.Plan, error) {
	defer since(t.d, time.Now())
	return t.Planner.Plan(ctx, w, cfg)
}

func (t timedAllocate) Allocate(ctx context.Context, specs []budget.Spec, cfg engine.Config) (*budget.SpecAllocation, error) {
	defer since(t.d, time.Now())
	return engine.Allocator{}.Allocate(ctx, specs, cfg)
}

func (t timedMeasure) Measure(ctx context.Context, plan *strategy.Plan, x *vector.Blocked, eta []float64, cfg engine.Config, workers, shards int) (*vector.Blocked, error) {
	defer since(t.d, time.Now())
	return engine.Measurer{}.Measure(ctx, plan, x, eta, cfg, workers, shards)
}

func (t timedRecover) Recover(ctx context.Context, w *marginal.Workload, plan *strategy.Plan, z *vector.Blocked, groupVar []float64, workers int) ([]float64, []float64, error) {
	defer since(t.d, time.Now())
	return engine.Recoverer{}.Recover(ctx, w, plan, z, groupVar, workers)
}

func (t timedConsist) Consist(ctx context.Context, w *marginal.Workload, answers, cellVar []float64, cfg engine.Config, workers int) ([]float64, map[bits.Mask]float64, error) {
	defer since(t.d, time.Now())
	return engine.Consister{}.Consist(ctx, w, answers, cellVar, cfg, workers)
}

func since(d *time.Duration, t0 time.Time) { *d += time.Since(t0) }

// runEngine replays one release through engine.NewWithStages with timed
// default stages, returning the release and its replayed duration.
func (r *replayer) runEngine(ctx context.Context, w *marginal.Workload, s spec) (*engine.Release, time.Duration, error) {
	var st [5]time.Duration
	eng := engine.NewWithStages(engine.Options{Cache: r.cache}, engine.Stages{
		Plan:     timedPlan{&st[0], engine.Planner{Cache: r.cache}},
		Allocate: timedAllocate{&st[1]},
		Measure:  timedMeasure{&st[2]},
		Recover:  timedRecover{&st[3]},
		Consist:  timedConsist{&st[4]},
	})
	rel, err := eng.RunVector(ctx, w, vector.FromDense(r.x), engineConfig(s))
	if err != nil {
		return nil, 0, err
	}
	t := &r.times
	t.plan += st[0]
	t.allocate += st[1]
	t.measure += st[2]
	t.recover += st[3]
	t.consist += st[4]
	t.engineRuns++
	return rel, st[0] + st[1] + st[2] + st[3] + st[4], nil
}

// warmPlans plans every structural key once, untimed, so the timed replay
// meets a warm plan cache as the server's misses do.
func (r *replayer) warmPlans(ctx context.Context, specs []spec) error {
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.structKey()] || s.Kind == kindAppend {
			continue
		}
		seen[s.structKey()] = true
		w, err := r.workloadOf(s)
		if err != nil {
			return err
		}
		if _, err := (engine.Planner{Cache: r.cache}).Plan(ctx, w, engineConfig(s)); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) workloadOf(s spec) (*marginal.Workload, error) {
	if s.Kind == kindCube {
		l, err := datacube.NewLattice(r.schema, s.MaxOrder)
		if err != nil {
			return nil, err
		}
		return l.Workload(), nil
	}
	return marginal.SchemaKWay(r.schema, s.K), nil
}

// verifyResponse checks one kept response against its replay: shape,
// bit-identity of every released number, and realized error against the
// exact marginals. It returns the replayed layer time of the response.
func (r *replayer) verifyResponse(ctx context.Context, s spec, body []byte, accs ...*accuracy) (time.Duration, error) {
	var resp responseWire
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("%s: decoding response: %w", s.structKey(), err)
	}
	if resp.Budget == nil {
		return 0, fmt.Errorf("%s: response has no budget", s.structKey())
	}
	switch s.Kind {
	case kindRelease:
		w := marginal.SchemaKWay(r.schema, s.K)
		rel, d, err := r.runEngine(ctx, w, s)
		if err != nil {
			return 0, err
		}
		if err := r.compareTables(s, w, resp.Tables, splitAnswers(w, rel.Answers), rel.CellVariances, resp.TotalVariance, rel.TotalVariance, accs); err != nil {
			return 0, err
		}
		return d, nil
	case kindCube:
		t0 := time.Now()
		cube, err := repro.ReleaseCubeBlockedContext(ctx, r.schema, vector.FromDense(r.x), s.MaxOrder, repro.Options{
			Epsilon: s.Epsilon, Delta: s.Delta, Strategy: repro.StrategyFourier, Seed: s.Seed, Cache: r.cache,
		})
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		r.times.cube += d
		r.times.cubeRuns++
		if resp.MaxOrder != s.MaxOrder {
			return 0, fmt.Errorf("%s: max_order %d", s.structKey(), resp.MaxOrder)
		}
		if err := r.compareTables(s, cube.Lattice.Workload(), resp.Cuboids, cube.Tables, cube.CellVariance, resp.TotalVariance, cube.TotalVariance, accs); err != nil {
			return 0, err
		}
		return d, nil
	case kindSynthetic:
		w := marginal.SchemaKWay(r.schema, s.K)
		rel, d, err := r.runEngine(ctx, w, s)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		tab, err := repro.SyntheticData(r.schema, w, &repro.Result{Answers: rel.Answers}, s.SynSeed)
		ds := time.Since(t0)
		if err != nil {
			return 0, err
		}
		r.times.synth += ds
		r.times.synthRuns++
		if err := r.compareRows(s, resp, tab.Rows); err != nil {
			return 0, err
		}
		return d + ds, nil
	}
	return 0, fmt.Errorf("cannot verify a %s request", s.Kind)
}

func splitAnswers(w *marginal.Workload, answers []float64) [][]float64 {
	out := make([][]float64, len(w.Marginals))
	off := w.Offsets()
	for i, m := range w.Marginals {
		out[i] = answers[off[i] : off[i]+m.Cells()]
	}
	return out
}

// compareTables checks a release or cube response table by table.
func (r *replayer) compareTables(s spec, w *marginal.Workload, got []marginalWire, want [][]float64, wantVar []float64, gotTotal, wantTotal float64, accs []*accuracy) error {
	key := s.structKey()
	if len(got) != len(w.Marginals) {
		return fmt.Errorf("%s: %d tables, workload has %d", key, len(got), len(w.Marginals))
	}
	if math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
		return fmt.Errorf("%s: total_variance %v, replay %v", key, gotTotal, wantTotal)
	}
	truth := r.truth(truthKey(s), w)
	var sse, sv float64
	for i, m := range w.Marginals {
		g := got[i]
		if !slices.Equal(g.Attrs, attrsOf(r.schema, m.Alpha)) {
			return fmt.Errorf("%s: table %d attrs %v, want %v", key, i, g.Attrs, attrsOf(r.schema, m.Alpha))
		}
		if len(g.Cells) != m.Cells() {
			return fmt.Errorf("%s: table %d has %d cells, want %d", key, i, len(g.Cells), m.Cells())
		}
		if math.Float64bits(g.Variance) != math.Float64bits(wantVar[i]) {
			return fmt.Errorf("%s: table %d variance %v, replay %v", key, i, g.Variance, wantVar[i])
		}
		for c, v := range g.Cells {
			if math.Float64bits(v) != math.Float64bits(want[i][c]) {
				return fmt.Errorf("%s seed %d: table %d cell %d is %v, engine replay gives %v", key, s.Seed, i, c, v, want[i][c])
			}
			e := v - truth[i][c]
			sse += e * e
		}
		sv += float64(m.Cells()) * g.Variance
	}
	for _, a := range accs {
		a.add(sse, float64(w.TotalCells()), gotTotal, sv)
	}
	return nil
}

func (r *replayer) compareRows(s spec, resp responseWire, want [][]int) error {
	key := s.structKey()
	if resp.Count != len(resp.Rows) {
		return fmt.Errorf("%s: count %d but %d rows", key, resp.Count, len(resp.Rows))
	}
	for i, row := range resp.Rows {
		if len(row) != len(r.schema.Attrs) {
			return fmt.Errorf("%s: row %d has %d values, schema has %d attributes", key, i, len(row), len(r.schema.Attrs))
		}
		for j, v := range row {
			if v < 0 || v >= r.schema.Attrs[j].Cardinality {
				return fmt.Errorf("%s: row %d value %d out of range for %s", key, i, v, r.schema.Attrs[j].Name)
			}
		}
	}
	if len(want) != len(resp.Rows) {
		return fmt.Errorf("%s: %d rows, replay samples %d", key, len(resp.Rows), len(want))
	}
	for i := range want {
		if !slices.Equal(want[i], resp.Rows[i]) {
			return fmt.Errorf("%s: row %d is %v, replay samples %v", key, i, resp.Rows[i], want[i])
		}
	}
	return nil
}

// attrsOf lists the schema attributes a marginal mask covers.
func attrsOf(schema *dataset.Schema, alpha bits.Mask) []int {
	out := []int{}
	for i := range schema.Attrs {
		if alpha&schema.AttrMask(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// tableCounts maps each structural key of the specs to its table count.
func tableCounts(schema *dataset.Schema, specs []spec) (map[string]int, error) {
	out := map[string]int{}
	for _, s := range specs {
		switch s.Kind {
		case kindRelease:
			out[s.structKey()] = len(marginal.SchemaKWay(schema, s.K).Marginals)
		case kindCube:
			l, err := datacube.NewLattice(schema, s.MaxOrder)
			if err != nil {
				return nil, err
			}
			out[s.structKey()] = len(l.Cuboids)
		}
	}
	return out, nil
}

// sortedSlots returns the map's keys in order.
func sortedSlots(m map[int][]byte) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
