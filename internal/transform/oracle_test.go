package transform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bits"
)

// MarginalFromCoefficients is the map-based Theorem 4.1 reconstruction
// that MarginalFromPacked replaced, kept verbatim as its oracle: coeff maps
// β → θ_β = ⟨f^β, x⟩, every β ⪯ alpha must be present, and the result has
// 2^‖α‖ entries indexed by bits.CellIndex(alpha, γ).
func MarginalFromCoefficients(d int, alpha bits.Mask, coeff map[bits.Mask]float64) []float64 {
	out := make([]float64, 1<<uint(alpha.Count()))
	MarginalFromCoefficientsInto(d, alpha, coeff, out)
	return out
}

// MarginalFromCoefficientsInto is MarginalFromCoefficients writing into a
// caller-provided slice of exactly 2^‖α‖ cells.
func MarginalFromCoefficientsInto(d int, alpha bits.Mask, coeff map[bits.Mask]float64, out []float64) {
	k := alpha.Count()
	cells := 1 << uint(k)
	if len(out) != cells {
		panic(fmt.Sprintf("transform: out has %d cells, marginal needs %d", len(out), cells))
	}
	packed := out
	for i := range packed {
		packed[i] = 0
	}
	alpha.VisitSubsets(func(beta bits.Mask) {
		v, ok := coeff[beta]
		if !ok {
			panic(fmt.Sprintf("transform: missing Fourier coefficient for β=%v", beta))
		}
		packed[bits.CellIndex(alpha, beta)] = v
	})
	WHT(packed)
	scale := math.Sqrt(float64(int64(1) << uint(d-k)))
	for i := range packed {
		packed[i] *= scale
	}
}

// TestMarginalFromPackedMatchesOracle: the in-place packed evaluation is
// bit-identical to the map-based oracle.
func TestMarginalFromPackedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 0; n < 50; n++ {
		d := 1 + rng.Intn(14)
		alpha := bits.Mask(rng.Intn(1 << uint(d)))
		coeff := map[bits.Mask]float64{}
		packed := make([]float64, 1<<uint(alpha.Count()))
		alpha.VisitSubsets(func(b bits.Mask) {
			v := rng.NormFloat64() * 100
			coeff[b] = v
			packed[bits.CellIndex(alpha, b)] = v
		})
		want := MarginalFromCoefficients(d, alpha, coeff)
		MarginalFromPacked(d, packed)
		for i := range want {
			if math.Float64bits(packed[i]) != math.Float64bits(want[i]) {
				t.Fatalf("d=%d α=%v cell %d: %v, want %v", d, alpha, i, packed[i], want[i])
			}
		}
	}
}
