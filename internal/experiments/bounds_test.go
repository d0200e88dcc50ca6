package experiments

import (
	"testing"

	"repro/internal/noise"
)

func pureParams(eps float64) noise.Params {
	return noise.Params{Type: noise.PureDP, Epsilon: eps, Neighbor: noise.AddRemove}
}

func TestBoundsTable1Relationships(t *testing.T) {
	p := pureParams(1)
	for _, d := range []int{10, 14, 16} {
		for _, k := range []int{1, 2, 3} {
			lower := BoundLower(d, k, p)
			fnu := BoundFourierNonUniform(d, k, p)
			fu := BoundFourierUniform(d, k, p)
			if fnu < lower {
				t.Fatalf("d=%d k=%d: non-uniform bound %v below lower bound %v", d, k, fnu, lower)
			}
			if fnu > fu*(1+1e-9) {
				t.Fatalf("d=%d k=%d: non-uniform %v must improve on uniform %v", d, k, fnu, fu)
			}
		}
	}
}

func TestBoundsApproxDPTighter(t *testing.T) {
	// For fixed ε and moderate δ the (ε,δ) bounds grow like √ of the pure
	// bounds in the combinatorial terms.
	pPure := pureParams(1)
	pApprox := noise.Params{Type: noise.ApproxDP, Epsilon: 1, Delta: 1e-6, Neighbor: noise.AddRemove}
	d, k := 16, 3
	if BoundFourierNonUniform(d, k, pApprox) >= BoundFourierNonUniform(d, k, pPure) {
		t.Fatal("(ε,δ) Fourier bound should beat pure DP at these parameters")
	}
}
