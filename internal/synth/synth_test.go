package synth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/consistency"
	"repro/internal/dataset"
	"repro/internal/marginal"
	"repro/internal/noise"
	"repro/internal/transform"
)

func TestMaterializeVectorRoundTrip(t *testing.T) {
	// Full coefficient set reproduces x exactly.
	rng := rand.New(rand.NewSource(1))
	d := 5
	n := 1 << d
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(7))
	}
	theta := transform.WHTCopy(x)
	coeff := make(map[bits.Mask]float64, n)
	for b := 0; b < n; b++ {
		coeff[bits.Mask(b)] = theta[b]
	}
	got, err := MaterializeVector(d, coeff)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("cell %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestMaterializeVectorPartialSupportPreservesMarginals(t *testing.T) {
	// With only the workload's coefficients, the materialised vector still
	// reproduces the workload's marginals exactly (Theorem 4.1: a marginal
	// depends only on its dominated coefficients).
	rng := rand.New(rand.NewSource(2))
	d := 6
	n := 1 << d
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(5))
	}
	w := marginal.AllKWay(d, 2)
	theta := transform.WHTCopy(x)
	coeff := make(map[bits.Mask]float64)
	for _, b := range w.FourierSupport() {
		coeff[b] = theta[b]
	}
	xhat, err := MaterializeVector(d, coeff)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Eval(x)
	got := w.Eval(xhat)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-8 {
			t.Fatalf("marginal cell %d: %v vs %v", i, got[i], truth[i])
		}
	}
}

func TestMaterializeValidation(t *testing.T) {
	if _, err := MaterializeVector(40, nil); err == nil {
		t.Fatal("dimension 40 accepted")
	}
	if _, err := MaterializeVector(2, map[bits.Mask]float64{0b111: 1}); err == nil {
		t.Fatal("out-of-dimension coefficient accepted")
	}
}

func TestRoundToCountsPreservesTotalAndNonNegativity(t *testing.T) {
	x := []float64{3.6, -2.0, 0.4, 1.9, 0.1}
	counts := RoundToCounts(x)
	var total int64
	for _, c := range counts {
		if c < 0 {
			t.Fatalf("negative count %d", c)
		}
		total += c
	}
	if total != 6 { // clamped mass = 3.6+0.4+1.9+0.1 = 6.0
		t.Fatalf("total %d, want 6", total)
	}
	if counts[1] != 0 {
		t.Fatal("negative cell must round to 0")
	}
}

func TestRoundToCountsLargestRemainder(t *testing.T) {
	x := []float64{1.7, 1.6, 0.7} // total 4.0
	counts := RoundToCounts(x)
	if counts[0]+counts[1]+counts[2] != 4 {
		t.Fatalf("total %v, want 4", counts)
	}
	// Largest remainders (0.7 twice, then 0.6) get the spare units:
	// floors are 1,1,0 (sum 2), two units to distribute → cells 0 and 2.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("apportionment %v, want [2 1 1]", counts)
	}
}

func TestRoundToCountsAllNegative(t *testing.T) {
	counts := RoundToCounts([]float64{-1, -2})
	if counts[0] != 0 || counts[1] != 0 {
		t.Fatalf("all-negative input should yield zeros: %v", counts)
	}
}

func TestSampleTuplesMatchesCounts(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 2},
		{Name: "b", Cardinality: 2},
	})
	counts := []int64{3, 0, 2, 1}
	tab, skipped := SampleTuples(s, counts, 9)
	if skipped != 0 {
		t.Fatalf("skipped %d", skipped)
	}
	if tab.Count() != 6 {
		t.Fatalf("%d rows, want 6", tab.Count())
	}
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if x[i] != float64(c) {
			t.Fatalf("cell %d: %v rows, want %d", i, x[i], c)
		}
	}
}

func TestSampleTuplesSkipsPaddingCells(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{{Name: "a", Cardinality: 3}}) // 2 bits, code 3 invalid
	counts := []int64{1, 1, 1, 5}
	tab, skipped := SampleTuples(s, counts, 1)
	if skipped != 5 {
		t.Fatalf("skipped %d, want 5", skipped)
	}
	if tab.Count() != 3 {
		t.Fatalf("%d rows, want 3", tab.Count())
	}
}

// End-to-end: noisy consistent release → synthetic microdata whose
// marginals track the release.
func TestSyntheticDataEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 6
	n := 1 << d
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(30))
	}
	w := marginal.AllKWay(d, 1)
	noisy := w.Eval(x)
	src := noise.NewSource(4)
	for i := range noisy {
		noisy[i] += src.Laplace(2)
	}
	res, err := consistency.L2(w, noisy)
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := MaterializeVector(d, res.Coefficients)
	if err != nil {
		t.Fatal(err)
	}
	counts := RoundToCounts(xhat)
	// Each marginal of the synthetic data stays close to the consistent
	// release (rounding adds at most ~1 per cell beyond clamping effects,
	// clamping is bounded by the noise scale).
	offsets := w.Offsets()
	for mi, m := range w.Marginals {
		target := res.Answers[offsets[mi] : offsets[mi]+m.Cells()]
		l1 := MarginalL1(d, m.Alpha, counts, target)
		if l1 > 150 { // total mass ≈ 64·15 ≈ 930; allow modest drift
			t.Fatalf("marginal %v drifted by %v from the release", m.Alpha, l1)
		}
	}
	// And the synthetic table is real microdata.
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "b0", Cardinality: 2}, {Name: "b1", Cardinality: 2},
		{Name: "b2", Cardinality: 2}, {Name: "b3", Cardinality: 2},
		{Name: "b4", Cardinality: 2}, {Name: "b5", Cardinality: 2},
	})
	tab, skipped := SampleTuples(schema, counts, 5)
	if skipped != 0 {
		t.Fatalf("binary schema cannot have padding cells, skipped %d", skipped)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if int64(tab.Count()) != total {
		t.Fatalf("synthetic rows %d != counts %d", tab.Count(), total)
	}
}

func BenchmarkMaterializeD16(b *testing.B) {
	w := marginal.AllKWay(16, 2)
	coeff := make(map[bits.Mask]float64)
	rng := rand.New(rand.NewSource(6))
	for _, m := range w.FourierSupport() {
		coeff[m] = rng.NormFloat64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaterializeVector(16, coeff); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSampleTuplesAllocs pins SampleTuples to a constant number of
// allocations at the NLTCS shape: cell indices, one backing array and the
// row headers, not one slice per row.
func TestSampleTuplesAllocs(t *testing.T) {
	s := dataset.NLTCSSchema()
	counts := make([]int64, s.DomainSize())
	rng := rand.New(rand.NewSource(9))
	for i := range counts {
		counts[i] = int64(rng.Intn(2))
	}
	if got := testing.AllocsPerRun(3, func() { SampleTuples(s, counts, 5) }); got > 16 {
		t.Fatalf("SampleTuples: %v allocs/op, want ≤ 16", got)
	}
}
