package experiments

import (
	"math"

	"repro/internal/bits"
	"repro/internal/noise"
)

// Table 1 of the paper: asymptotic expected L1 noise per k-way marginal,
// E‖Cβx − C̃β‖₁, for each strategy, without the hidden constants. These
// functions regenerate the table's rows; EXPERIMENTS.md compares them with
// the measured noise of the corresponding mechanisms (the ratio should be
// stable across d and k if the implementation matches the analysis).

// BoundBaseCounts is row "Base counts": O(2^{(d+k)/2}/ε), with the
// √log(1/δ) factor under (ε,δ)-DP.
func BoundBaseCounts(d, k int, p noise.Params) float64 {
	v := math.Pow(2, float64(d+k)/2) / p.Epsilon
	if p.Type == noise.ApproxDP {
		v *= math.Sqrt(math.Log(1 / p.Delta))
	}
	return v
}

// BoundMarginals is row "Marginals": O(2^k·C(d,k)/ε) for ε-DP and
// O(2^k·√(C(d,k)·log(1/δ))/ε) for (ε,δ)-DP.
func BoundMarginals(d, k int, p noise.Params) float64 {
	if p.Type == noise.ApproxDP {
		return math.Pow(2, float64(k)) * math.Sqrt(bits.Binomial(d, k)*math.Log(1/p.Delta)) / p.Epsilon
	}
	return math.Pow(2, float64(k)) * bits.Binomial(d, k) / p.Epsilon
}

// BoundFourierUniform is row "Fourier coefficients (uniform noise)":
// O(k·C(d,k)·√(2^k)/ε) (Theorem B.1, a √(2^k) improvement over [1]) and
// O(√(k·2^k·C(d,k)·log(1/δ))/ε) for (ε,δ)-DP.
func BoundFourierUniform(d, k int, p noise.Params) float64 {
	if p.Type == noise.ApproxDP {
		return math.Sqrt(float64(k)*math.Pow(2, float64(k))*bits.Binomial(d, k)*math.Log(1/p.Delta)) / p.Epsilon
	}
	return float64(k) * bits.Binomial(d, k) * math.Sqrt(math.Pow(2, float64(k))) / p.Epsilon
}

// BoundFourierNonUniform is row "Fourier coefficients (non-uniform noise)":
// O(k·√(C(d,k)·C(d+k,k))/ε) (Lemma 4.2) and O(√(k·C(d+k,k)·log(1/δ))/ε)
// for (ε,δ)-DP.
func BoundFourierNonUniform(d, k int, p noise.Params) float64 {
	if p.Type == noise.ApproxDP {
		return math.Sqrt(float64(k)*bits.Binomial(d+k, k)*math.Log(1/p.Delta)) / p.Epsilon
	}
	return float64(k) * math.Sqrt(bits.Binomial(d, k)*bits.Binomial(d+k, k)) / p.Epsilon
}

// BoundLower is the unconditional lower bound Ω̃(√C(d,k)/ε) of [15].
func BoundLower(d, k int, p noise.Params) float64 {
	return math.Sqrt(bits.Binomial(d, k)) / p.Epsilon
}
