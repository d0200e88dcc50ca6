package marginal

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bits"
	"repro/internal/dataset"
	"repro/internal/transform"
)

// EvalFromFourier is the map-based Theorem 4.1 reconstruction the Fourier
// index replaced, kept verbatim as the oracle of the dense path: it
// computes Cα x from coefficients θ_β = ⟨f^β, x⟩, all β ⪯ α present.
func (m Marginal) EvalFromFourier(d int, coeff map[bits.Mask]float64) []float64 {
	k := m.Alpha.Count()
	packed := make([]float64, 1<<uint(k))
	m.Alpha.VisitSubsets(func(beta bits.Mask) {
		v, ok := coeff[beta]
		if !ok {
			panic(fmt.Sprintf("transform: missing Fourier coefficient for β=%v", beta))
		}
		packed[bits.CellIndex(m.Alpha, beta)] = v
	})
	transform.WHT(packed)
	scale := math.Sqrt(float64(int64(1) << uint(d-k)))
	for i := range packed {
		packed[i] *= scale
	}
	return packed
}

// TestFourierIndexLayout: Support is the union closure in mask order, and
// Cols[i][p] names the support column of the coefficient at packed cell p
// of marginal i, strictly increasing along p — the order of a subset walk.
func TestFourierIndexLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adult := dataset.AdultSchema()
	workloads := []*Workload{
		AllKWay(8, 2),
		AllKWay(6, 0),
		MustWorkload(10, []bits.Mask{bits.Full(10), 0x003, 0x300, 0x003}),
		SchemaKWayStar(adult, 1),
		SchemaKWayAnchored(adult, 1, 2),
	}
	for n := 0; n < 20; n++ {
		d := 1 + rng.Intn(12)
		alphas := make([]bits.Mask, 1+rng.Intn(8))
		for i := range alphas {
			alphas[i] = bits.Mask(rng.Intn(1 << uint(d)))
		}
		workloads = append(workloads, MustWorkload(d, alphas))
	}
	for wi, w := range workloads {
		fi := w.Fourier()
		want := bits.UnionClosure(w.Masks())
		if len(fi.Support) != len(want) {
			t.Fatalf("workload %d: |F| = %d, want %d", wi, len(fi.Support), len(want))
		}
		for c := range want {
			if fi.Support[c] != want[c] {
				t.Fatalf("workload %d: support[%d] = %v, want %v", wi, c, fi.Support[c], want[c])
			}
		}
		if len(fi.Cols) != len(w.Marginals) {
			t.Fatalf("workload %d: %d column lists for %d marginals", wi, len(fi.Cols), len(w.Marginals))
		}
		for i, m := range w.Marginals {
			cols := fi.Cols[i]
			if len(cols) != m.Cells() {
				t.Fatalf("workload %d marginal %d: %d columns for %d cells", wi, i, len(cols), m.Cells())
			}
			for p, c := range cols {
				if beta := bits.CellMask(m.Alpha, p); fi.Support[c] != beta {
					t.Fatalf("workload %d marginal %d: cell %d maps to %v, want %v", wi, i, p, fi.Support[c], beta)
				}
				if p > 0 && cols[p-1] >= c {
					t.Fatalf("workload %d marginal %d: columns not increasing at cell %d", wi, i, p)
				}
			}
		}
		if w.Fourier() != fi {
			t.Fatalf("workload %d: index rebuilt on second call", wi)
		}
	}
}

// TestFourierIndexConcurrentFirstUse: racing first calls all see one index
// (run under -race to check the publication).
func TestFourierIndexConcurrentFirstUse(t *testing.T) {
	w := AllKWay(12, 3)
	got := make([]*FourierIndex, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = w.Fourier()
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d saw a different index", g)
		}
	}
}
