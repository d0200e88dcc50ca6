package accountant

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// composeOnly hides a composition's running form, so a ledger over it
// composes its whole history on every admission and every Spent — the
// accounting the running sums replaced, kept as their oracle.
type composeOnly struct{ Composition }

// TestRunningSumsMatchCompose drives random sequences through a registry
// and through an oracle registry whose ledgers re-compose their history:
// charges across partitions and the whole population, per-key and global
// refusals (a global refusal refunds the key's admission) and snapshot
// restores, under Basic and zCDP. After every step every ledger's Spent is
// Float64bits-equal to Compose over its history and to the oracle's, and
// every refusal message is the oracle's, word for word.
func TestRunningSumsMatchCompose(t *testing.T) {
	for _, comp := range []Composition{Basic{}, ZCDP{TargetDelta: 1e-6}} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fast := newTestRegistry(t, comp)
			oracle := newTestRegistry(t, composeOnly{comp})
			refusals, refunds := 0, 0
			for step := 0; step < 400; step++ {
				key := []string{"", "k1", "k2"}[rng.Intn(3)]
				if rng.Intn(40) == 0 {
					global, perKey := randomSnapshot(rng)
					if err := fast.Restore(global, perKey); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Restore(global, perKey); err != nil {
						t.Fatal(err)
					}
				} else {
					c := randomCharge(rng, step)
					errF, errO := fast.Charge(key, c), oracle.Charge(key, c)
					if fmt.Sprint(errF) != fmt.Sprint(errO) {
						t.Fatalf("%s seed %d step %d: charge %+v to %q:\n got %v\nwant %v", comp.Name(), seed, step, c, key, errF, errO)
					}
					if errF != nil {
						refusals++
					}
					if key != "" && strings.HasPrefix(fmt.Sprint(errF), "global cap") {
						refunds++
					}
				}
				for _, k := range []string{"", "k1", "k2"} {
					lf, _ := fast.Ledger(k)
					lo, _ := oracle.Ledger(k)
					eps, del := lf.Spent()
					wantEps, wantDel := comp.Compose(lf.History())
					oEps, oDel := lo.Spent()
					for _, pair := range [][2]float64{{eps, wantEps}, {del, wantDel}, {eps, oEps}, {del, oDel}} {
						if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
							t.Fatalf("%s seed %d step %d ledger %q: spent (%v, %v), Compose (%v, %v), oracle (%v, %v)",
								comp.Name(), seed, step, k, eps, del, wantEps, wantDel, oEps, oDel)
						}
					}
				}
			}
			if refusals == 0 || refunds == 0 {
				t.Fatalf("%s seed %d: %d refusals, %d refunds exercised", comp.Name(), seed, refusals, refunds)
			}
		}
	}
}

// newTestRegistry builds a registry over comp with two keys: k1 capped
// below the global cap and k2 inheriting it, so both per-key refusals and
// global refusals with refunds occur.
func newTestRegistry(t *testing.T, comp Composition) *Registry {
	t.Helper()
	r, err := NewRegistry(40, 1e-3, comp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetKeyCaps("k1", KeyCaps{Epsilon: 25, Delta: -1}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetKeyCaps("k2", KeyCaps{}); err != nil {
		t.Fatal(err)
	}
	return r
}

// randomCharge draws a charge over a random partition (or the whole
// population), pure or approximate, sometimes with an explicit σ.
func randomCharge(rng *rand.Rand, step int) Charge {
	c := Charge{
		Label:     fmt.Sprintf("r%d", step),
		Epsilon:   0.01 + rng.Float64()*rng.Float64()*3,
		Partition: []string{"", "", "p0", "p1", "p2", "p3"}[rng.Intn(6)],
	}
	if rng.Intn(3) == 0 {
		c.Delta = 1e-9 * float64(1+rng.Intn(1000))
		if rng.Intn(2) == 0 {
			c.Sigma = 0.5 + rng.Float64()*5
			c.Sensitivity = 1
		}
	}
	return c
}

// randomSnapshot draws a small ledger snapshot to restore on top.
func randomSnapshot(rng *rand.Rand) ([]Charge, map[string][]Charge) {
	global := make([]Charge, rng.Intn(4))
	for i := range global {
		global[i] = randomCharge(rng, -i)
	}
	perKey := map[string][]Charge{}
	if rng.Intn(2) == 0 {
		perKey["k1"] = append([]Charge(nil), global...)
	}
	return global, perKey
}
