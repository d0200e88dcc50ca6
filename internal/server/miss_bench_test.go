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

// BenchmarkServerMiss times the miss path at the paper's shapes: every
// request carries a fresh seed, so each one misses the result cache,
// charges the ledger and runs measure, recover, consist and encode over the
// memoized S·x. NLTCS variants (d=16, 21,576 tuples): Fourier k=2 and k=3
// releases and an order-2 cube. Adult variants (2^23 cells, 32,561 tuples),
// the three request shapes of dpbench's adult-sweep: Fourier and Workload
// k=2 releases and an order-2 cube. The ledger grows by one charge per
// iteration, as it does in a long-running daemon.
func BenchmarkServerMiss(b *testing.B) {
	var nltcs, adult *dataset.Table
	for _, v := range []struct {
		name, path, prefix string
		adult              bool
	}{
		{"fourier-k2", "/v1/release", `{"dataset_id":"d","workload":{"k":2},"epsilon":1,"seed":`, false},
		{"fourier-k3", "/v1/release", `{"dataset_id":"d","workload":{"k":3},"epsilon":1,"seed":`, false},
		{"cube-order2", "/v1/cube", `{"dataset_id":"d","max_order":2,"epsilon":1,"seed":`, false},
		{"adult-fourier-k2", "/v1/release", `{"dataset_id":"d","workload":{"k":2},"epsilon":1,"seed":`, true},
		{"adult-workload-k2", "/v1/release", `{"dataset_id":"d","strategy":"workload","workload":{"k":2},"epsilon":1,"seed":`, true},
		{"adult-cube-order2", "/v1/cube", `{"dataset_id":"d","max_order":2,"epsilon":1,"seed":`, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			// The tables are built on first use, so a -bench filter that
			// skips one shape skips its generation too.
			var tab *dataset.Table
			if v.adult {
				if adult == nil {
					adult = dataset.SyntheticAdult(1, dataset.AdultTupleCount)
				}
				tab = adult
			} else {
				if nltcs == nil {
					nltcs = dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
				}
				tab = nltcs
			}
			x, err := tab.Vector()
			if err != nil {
				b.Fatal(err)
			}
			s := newTestServer(b, Config{EpsilonCap: math.MaxFloat64, MaxWorkers: 0})
			if _, err := s.Store().PutCounts("d", tab.Schema, x, int64(tab.Count())); err != nil {
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
