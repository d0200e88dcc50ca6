package accountant

import (
	"fmt"
	"testing"
)

// BenchmarkLedgerSpent measures a composed Spent over 1k-, 10k- and
// 100k-charge histories spread over 16 partitions — the admission-path
// cost of a long-lived multi-tenant daemon, tracked per PR through the CI
// bench artifact. The ledger keeps running sums, so the three sizes must
// cost the same.
func BenchmarkLedgerSpent(b *testing.B) {
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
		for _, n := range []int{1_000, 10_000, 100_000} {
			charges := make([]Charge, n)
			for i := range charges {
				charges[i] = Charge{
					Label:     "r",
					Epsilon:   0.001,
					Delta:     1e-9,
					Partition: fmt.Sprintf("p%d", i%16),
				}
			}
			b.Run(fmt.Sprintf("%s/charges=%d", comp.Name(), n), func(b *testing.B) {
				a, err := NewComposed(1e9, 1e-3, comp)
				if err != nil {
					b.Fatal(err)
				}
				if err := a.restore(charges); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e, _ := a.Spent(); e <= 0 {
						b.Fatal("zero spend")
					}
				}
			})
		}
	}
}
