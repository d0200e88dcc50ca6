package synth

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/noise"
)

// The reference implementations below are the original quadratic-memory
// RoundToCounts and SampleTuples, kept verbatim as oracles: the linear-time
// versions must reproduce their counts, rows and skipped totals bit for bit
// (TestRoundToCountsMatchesOracle, TestSampleTuplesMatchesOracle).

func oracleRoundToCounts(x []float64) []int64 {
	clamped := make([]float64, len(x))
	total := 0.0
	for i, v := range x {
		if v > 0 {
			clamped[i] = v
			total += v
		}
	}
	target := int64(math.Round(total))
	if target < 0 {
		target = 0
	}
	out := make([]int64, len(x))
	var assigned int64
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, 0, len(x))
	for i, v := range clamped {
		fl := math.Floor(v)
		out[i] = int64(fl)
		assigned += int64(fl)
		if v > fl {
			fracs = append(fracs, frac{i, v - fl})
		}
	}
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for i := 0; assigned < target && i < len(fracs); i++ {
		out[fracs[i].idx]++
		assigned++
	}
	// If clamping removed too much mass relative to the rounded target,
	// top up the largest cells (keeps totals exact).
	for i := 0; assigned < target && len(out) > 0; i = (i + 1) % len(out) {
		out[i]++
		assigned++
	}
	return out
}

func oracleSampleTuples(s *dataset.Schema, counts []int64, seed int64) (*dataset.Table, int64) {
	rng := noise.NewSource(seed)
	var rows [][]int
	var skipped int64
	for idx, c := range counts {
		if c <= 0 {
			continue
		}
		if !s.IsValid(idx) {
			skipped += c
			continue
		}
		tuple := s.Decode(idx)
		for k := int64(0); k < c; k++ {
			rows = append(rows, append([]int(nil), tuple...))
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return &dataset.Table{Schema: s, Rows: rows}, skipped
}

// roundCases are vectors that exercise every apportionment path: random
// noise (selection), quantised remainders whose tie at the m-th largest
// straddles the boundary (the sort fallback), all remainders winning,
// all-negative, NaN and empty input.
func roundCases() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]float64{
		"empty":         {},
		"nil":           nil,
		"single":        {2.4},
		"all-negative":  {-1, -2.5, -0.1},
		"nan":           {math.NaN(), 1.5, math.NaN(), 0.7, 2.2},
		"all-nan":       {math.NaN(), math.NaN()},
		"tie-crossing":  {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		"all-win":       {0.9, 0.9, 1.2},
		"integral":      {1, 2, 0, 3},
		"largest-rem":   {1.7, 1.6, 0.7},
		"zero-and-tiny": {0, 1e-300, -0.0, 5e-324},
	}
	for _, n := range []int{2, 3, 17, 256, 1 << 12, 1 << 16} {
		gauss := make([]float64, n)
		quart := make([]float64, n)
		half := make([]float64, n)
		for i := range gauss {
			gauss[i] = rng.NormFloat64()*3 + 0.5
			// Remainders in {0, .25, .5, .75}: long runs of exact ties.
			quart[i] = float64(rng.Intn(12)-3) / 4
			half[i] = float64(rng.Intn(6)) / 2
		}
		cases[fmt.Sprintf("gauss-%d", n)] = gauss
		cases[fmt.Sprintf("quarters-%d", n)] = quart
		cases[fmt.Sprintf("halves-%d", n)] = half
	}
	return cases
}

func TestRoundToCountsMatchesOracle(t *testing.T) {
	for name, x := range roundCases() {
		want := oracleRoundToCounts(x)
		got := RoundToCounts(x)
		if !slices.Equal(got, want) {
			t.Errorf("%s: counts differ from the sorting oracle", name)
		}
	}
}

// TestRoundToCountsTieFallback pins that the tie cases above really take
// the fallback: a tie at the m-th largest remainder straddles the boundary.
func TestRoundToCountsTieFallback(t *testing.T) {
	for _, name := range []string{"tie-crossing", "quarters-4096", "halves-65536"} {
		x := roundCases()[name]
		var rem []float64
		total, assigned := 0.0, 0.0
		for _, v := range x {
			if v > 0 {
				total += v
				assigned += math.Floor(v)
				if f := v - math.Floor(v); f > 0 {
					rem = append(rem, f)
				}
			}
		}
		m := int(math.Round(total) - assigned)
		if m <= 0 || m >= len(rem) {
			t.Fatalf("%s: m=%d of %d remainders takes no selection", name, m, len(rem))
		}
		theta := kthLargest(slices.Clone(rem), m)
		atLeast := 0
		for _, f := range rem {
			if f >= theta {
				atLeast++
			}
		}
		if atLeast == m {
			t.Errorf("%s: no tie crosses the boundary; the fallback is not exercised", name)
		}
	}
}

func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gens := map[string]func(i, n int) float64{
		"random":     func(int, int) float64 { return rng.Float64() },
		"few-values": func(int, int) float64 { return float64(rng.Intn(3)) },
		"ascending":  func(i, _ int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"organ-pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
		"constant":   func(int, int) float64 { return 0.5 },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 10, 1000} {
			a := make([]float64, n)
			for i := range a {
				a[i] = gen(i, n)
			}
			sorted := slices.Clone(a)
			slices.Sort(sorted)
			for _, k := range []int{1, 2, n / 2, n} {
				if k < 1 || k > n {
					continue
				}
				if got, want := kthLargest(slices.Clone(a), k), sorted[n-k]; got != want {
					t.Errorf("%s n=%d k=%d: got %v, want %v", name, n, k, got, want)
				}
			}
		}
	}
}

func TestSampleTuplesMatchesOracle(t *testing.T) {
	schemas := map[string]*dataset.Schema{
		"nltcs": dataset.NLTCSSchema(),
		"mixed": dataset.MustSchema([]dataset.Attribute{
			{Name: "a", Cardinality: 3}, {Name: "b", Cardinality: 2},
			{Name: "c", Cardinality: 5}, {Name: "d", Cardinality: 1},
			{Name: "e", Cardinality: 4}, {Name: "f", Cardinality: 7},
		}),
		"single": dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 3}}),
	}
	rng := rand.New(rand.NewSource(8))
	for name, s := range schemas {
		n := s.DomainSize()
		sparse := make([]int64, n)
		dense := make([]int64, n)
		for i := range sparse {
			if rng.Intn(20) == 0 {
				sparse[i] = int64(rng.Intn(5))
			}
			dense[i] = int64(rng.Intn(4) - 1) // includes negative counts
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()*2 + 0.3
		}
		for cname, counts := range map[string][]int64{
			"zero":    make([]int64, n),
			"sparse":  sparse,
			"dense":   dense,
			"rounded": RoundToCounts(x),
		} {
			for _, seed := range []int64{0, 1, -7, 1 << 40} {
				wantTab, wantSkip := oracleSampleTuples(s, counts, seed)
				gotTab, gotSkip := SampleTuples(s, counts, seed)
				if gotSkip != wantSkip {
					t.Errorf("%s/%s seed %d: skipped %d, want %d", name, cname, seed, gotSkip, wantSkip)
				}
				if (gotTab.Rows == nil) != (wantTab.Rows == nil) {
					t.Errorf("%s/%s seed %d: nil rows %v, want %v", name, cname, seed, gotTab.Rows == nil, wantTab.Rows == nil)
				}
				if !slices.EqualFunc(gotTab.Rows, wantTab.Rows, slices.Equal) {
					t.Errorf("%s/%s seed %d: rows differ from the oracle", name, cname, seed)
				}
			}
		}
	}
}

// TestSampleTuplesRowsCapped: rows share one backing array, so each must
// be capacity-capped — appending to a row may never overwrite the next.
func TestSampleTuplesRowsCapped(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 2}, {Name: "b", Cardinality: 3}})
	tab, _ := SampleTuples(s, []int64{2, 1, 3, 0, 1, 2, 0, 0}, 4)
	want := make([][]int, len(tab.Rows))
	for i, row := range tab.Rows {
		want[i] = slices.Clone(row)
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d > len %d", i, cap(row), len(row))
		}
	}
	for i := range tab.Rows {
		tab.Rows[i] = append(tab.Rows[i], -1)
	}
	for i, row := range tab.Rows {
		if !slices.Equal(row[:len(row)-1], want[i]) {
			t.Fatalf("row %d overwritten by a neighbour's append: %v, want %v", i, row, want[i])
		}
	}
}
