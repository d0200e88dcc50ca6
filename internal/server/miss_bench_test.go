package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkServerMiss times the miss path at the paper's NLTCS shape
// (d=16, 21,576 tuples): every request carries a fresh seed, so each one
// misses the result cache, charges the ledger and runs measure, recover,
// consist and encode over the memoized S·x. Variants: Fourier k=2 and k=3
// releases and an order-2 cube. The ledger grows by one charge per
// iteration, as it does in a long-running daemon.
func BenchmarkServerMiss(b *testing.B) {
	tab := dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
	x, err := tab.Vector()
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name, path, prefix string
	}{
		{"fourier-k2", "/v1/release", `{"dataset_id":"nltcs","workload":{"k":2},"epsilon":1,"seed":`},
		{"fourier-k3", "/v1/release", `{"dataset_id":"nltcs","workload":{"k":3},"epsilon":1,"seed":`},
		{"cube-order2", "/v1/cube", `{"dataset_id":"nltcs","max_order":2,"epsilon":1,"seed":`},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := newTestServer(b, Config{EpsilonCap: math.MaxFloat64, MaxWorkers: 0})
			if _, err := s.Store().PutCounts("nltcs", tab.Schema, x, int64(tab.Count())); err != nil {
				b.Fatal(err)
			}
			seed := int64(0)
			post := func() {
				seed++
				body := strconv.AppendInt([]byte(v.prefix), seed, 10)
				body = append(body, '}')
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, v.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("seed %d: %d %s", seed, rec.Code, rec.Body.String())
				}
			}
			post() // plan, and memoize S·x on the sealed version
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
