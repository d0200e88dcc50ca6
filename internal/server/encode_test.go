package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// TestSyntheticEncoderMatchesJSON: the append-based encoder is byte-
// identical to encoding/json on the synthetic body, which the result cache
// replays and clients parse.
func TestSyntheticEncoderMatchesJSON(t *testing.T) {
	cases := map[string]syntheticBody{
		"nil rows":       {Strategy: "fourier", Count: 0, Rows: nil},
		"empty rows":     {Strategy: "fourier", Count: 0, Rows: [][]int{}},
		"empty tuples":   {Strategy: "identity", Count: 2, Rows: [][]int{{}, {}}},
		"nil tuple":      {Strategy: "identity", Count: 2, Rows: [][]int{nil, {1}}},
		"single digits":  {Strategy: "cluster", Count: 3, Rows: [][]int{{0, 1, 9}, {9, 0, 0}, {5, 5, 5}}},
		"multi-digit":    {Strategy: "query", Count: 2, Rows: [][]int{{10, 99, 100, 12345}, {1 << 40, 7, 1<<63 - 1}}},
		"negative":       {Strategy: "fourier", Count: -1, Rows: [][]int{{-1, -10, -9}, {-1 << 63, 0}}},
		"escaped string": {Strategy: `<&"\` + "\u2028é\x01>", Count: 1, Rows: [][]int{{3}}},
		"empty strategy": {Strategy: "", Count: 1, Rows: [][]int{{0}}},
	}
	for name, body := range cases {
		want, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeSyntheticBody(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// goldenFloats are the float64 values whose JSON form sits on an
// encoding/json formatting boundary: signed zero, the 'f'/'e' switches at
// 1e-6 and 1e21 on both sides, the two-digit negative exponent cleanup,
// and the smallest subnormal and normal magnitudes.
var goldenFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, -2.25, 123456.789, 3e20,
	1e21, -1e21, 9.999999999999999e20, 1e-6, -1e-6, 9.99e-7, 1e-7, 1.5e-9,
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1e100, 1e-100, 0.30000000000000004,
}

// TestTableEncoderMatchesJSON: the release, cube and budget renderers are
// byte-identical to encoding/json on their wire structs, including the
// float formatting boundaries, HTML characters in the strategy name and
// nil versus empty attrs and cells; NaN and ±Inf are refused like
// json.Marshal refuses them.
func TestTableEncoderMatchesJSON(t *testing.T) {
	tables := map[string][]marginalJSON{
		"nil tables":   nil,
		"empty tables": {},
		"golden cells": {{Attrs: []int{0, 2}, Cells: goldenFloats, Variance: 2.5}},
		"nil attrs":    {{Attrs: nil, Cells: []float64{1, 2}, Variance: 1e-7}},
		"empty attrs":  {{Attrs: []int{}, Cells: []float64{7}, Variance: 0}},
		"nil cells":    {{Attrs: []int{1}, Cells: nil, Variance: 3}},
		"empty cells":  {{Attrs: []int{1}, Cells: []float64{}, Variance: -0.5}},
		"many tables": {
			{Attrs: []int{0}, Cells: []float64{-0.0000012, 1e22}, Variance: 1e21},
			{Attrs: []int{12, 345}, Cells: []float64{5e-324}, Variance: 9.999999999999999e20},
		},
	}
	strategies := []string{"F", "fourier", `<&"\` + "\u2028é\x01>", ""}
	for name, tabs := range tables {
		for _, strategy := range strategies {
			for _, tv := range goldenFloats {
				rb := releaseBody{Strategy: strategy, TotalVariance: tv, Tables: tabs}
				matchJSON(t, name+" release", rb, func() ([]byte, error) { return encodeReleaseBody(rb) })
			}
		}
		for _, order := range []int{0, 2, -1} {
			cb := cubeBody{MaxOrder: order, TotalVariance: 12.5, Cuboids: tabs}
			matchJSON(t, name+" cube", cb, func() ([]byte, error) { return encodeCubeBody(cb) })
		}
	}
	for _, f := range goldenFloats {
		bj := budgetJSON{EpsilonSpent: f, EpsilonCap: math.MaxFloat64, DeltaSpent: f / 3, DeltaCap: 1e-3, Releases: 12345}
		matchJSON(t, "budget", bj, func() ([]byte, error) { return appendBudgetJSON(nil, bj) })
	}
	// Random bit patterns cover every exponent and mantissa shape.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, _ := json.Marshal(f)
		got, err := appendFloatJSON(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("float %v (%#x): got %s (%v), want %s", f, math.Float64bits(f), got, err, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(bad); err == nil {
			t.Fatalf("json.Marshal accepted %v", bad)
		}
		if _, err := encodeReleaseBody(releaseBody{Strategy: "F", TotalVariance: bad, Tables: []marginalJSON{}}); err == nil {
			t.Errorf("release total variance %v accepted", bad)
		}
		if _, err := encodeCubeBody(cubeBody{MaxOrder: 1, Cuboids: []marginalJSON{{Attrs: []int{0}, Cells: []float64{1, bad}}}}); err == nil {
			t.Errorf("cube cell %v accepted", bad)
		}
		if _, err := encodeReleaseBody(releaseBody{Tables: []marginalJSON{{Attrs: []int{0}, Cells: []float64{1}, Variance: bad}}}); err == nil {
			t.Errorf("table variance %v accepted", bad)
		}
		if _, err := appendBudgetJSON(nil, budgetJSON{DeltaSpent: bad}); err == nil {
			t.Errorf("budget %v accepted", bad)
		}
	}
}

// TestFloatJSONGolden: appendFloatJSON equals json.Marshal on the values
// where a shortest-digit renderer is most likely to slip — every power of
// two and its neighbours (the binade edges, where the gap below a value is
// half the gap above), the powers of ten and their neighbours, the ends of
// the exact-integer range and of the 'f' range, and the extreme normals —
// at both signs.
func TestFloatJSONGolden(t *testing.T) {
	var vals []float64
	around := func(f float64) {
		vals = append(vals, f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
	}
	for e := -1022; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for p := -7; p <= 22; p++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(p), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(f)
	}
	around(1 << 53)
	vals = append(vals, 1<<53-1, 1<<53+2, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64)
	for _, f := range vals {
		for _, v := range []float64{f, -f} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendFloatJSON(nil, v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v (%#x): got %s (%v), want %s", v, math.Float64bits(v), got, err, want)
			}
		}
	}
}

// TestFloatJSONNoisyValues: appendFloatJSON equals json.Marshal on the
// values a release renders — noisy counts, which are near-integers with
// 16–17 significant digits — and on log-uniform magnitudes across the
// whole 'f' range.
func TestFloatJSONNoisyValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200000; i++ {
		f := float64(rng.Intn(50000)) + rng.NormFloat64()*4
		if i%2 == 1 {
			f = math.Pow(10, rng.Float64()*27-6)
		}
		want, _ := json.Marshal(f)
		got, err := appendFloatJSON(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): got %s (%v), want %s", f, math.Float64bits(f), got, err, want)
		}
	}
}

// TestSchubfachLogs pins the fixed-point logarithms and the table behind
// the shortest-digit renderer to exact integer arithmetic over every
// exponent a float64 reaches: ⌊log₁₀ 2^e⌋, ⌊log₁₀ ¾·2^e⌋ and ⌊log₂ 10^e⌋,
// and each table entry g in [2^125, 2^126).
func TestSchubfachLogs(t *testing.T) {
	// floorLog returns ⌊log_b(num/den)⌋ for positive integers num and den.
	floorLog := func(b int64, num, den *big.Int) int {
		base := big.NewInt(b)
		n := 0
		x, y := new(big.Int).Set(num), new(big.Int).Set(den)
		for x.Cmp(y) < 0 {
			x.Mul(x, base)
			n--
		}
		for {
			y.Mul(y, base)
			if x.Cmp(y) < 0 {
				return n
			}
			n++
		}
	}
	pow := func(b int64, e int) (*big.Int, *big.Int) {
		p := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			return p, big.NewInt(1)
		}
		return big.NewInt(1), p
	}
	for e := -1200; e <= 1200; e++ {
		num, den := pow(2, e)
		if got, want := flog10pow2(e), floorLog(10, num, den); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", e, got, want)
		}
		num.Mul(num, big.NewInt(3))
		den.Mul(den, big.NewInt(4))
		if got, want := flog10ThreeQuartersPow2(e), floorLog(10, num, den); got != want {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want %d", e, got, want)
		}
	}
	for e := -400; e <= 400; e++ {
		num, den := pow(10, e)
		if got, want := flog2pow10(e), floorLog(2, num, den); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}
	for i, g := range schubfachTable {
		if g[0] < 1<<62 || g[0] >= 1<<63 || g[1] >= 1<<63 {
			t.Fatalf("table entry k=%d = %#x·2^63 + %#x is not in [2^125, 2^126)", i+schubfachKMin, g[0], g[1])
		}
	}
}

// FuzzFloatJSON: for any bit pattern, appendFloatJSON renders exactly what
// json.Marshal does, and refuses exactly what it refuses (NaN, ±Inf).
func FuzzFloatJSON(f *testing.F) {
	for _, g := range goldenFloats {
		f.Add(math.Float64bits(g))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		want, wantErr := json.Marshal(v)
		got, err := appendFloatJSON(nil, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%#x: error %v, json.Marshal error %v", b, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): got %s, want %s", v, b, got, want)
		}
	})
}

// matchJSON fails t unless render returns exactly json.Marshal(v).
func matchJSON(t *testing.T, name string, v any, render func() ([]byte, error)) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	got, err := render()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
	}
}

// BenchmarkSyntheticData times the three post-release steps of
// /v1/synthetic at the NLTCS shape (d=16, k=2 Fourier, ε=1): round
// apportions the materialised vector into counts, sample draws the rows,
// encode renders the response body.
func BenchmarkSyntheticData(b *testing.B) {
	schema := dataset.NLTCSSchema()
	tab := dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
	w := repro.AllKWayMarginals(schema, 2)
	rel, err := repro.NewReleaser(schema, w)
	if err != nil {
		b.Fatal(err)
	}
	x, err := tab.Vector()
	if err != nil {
		b.Fatal(err)
	}
	res, err := rel.ReleaseVector(context.Background(), x, repro.ReleaseSpec{Epsilon: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	xhat, err := repro.ReleaseVectorCoefficients(schema, w, res)
	if err != nil {
		b.Fatal(err)
	}
	counts := synth.RoundToCounts(xhat)
	syn, _ := synth.SampleTuples(schema, counts, 5)
	body := syntheticBody{Strategy: res.Strategy, Count: syn.Count(), Rows: syn.Rows}

	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			synth.RoundToCounts(xhat)
		}
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			synth.SampleTuples(schema, counts, 5)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := encodeSyntheticBody(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
