package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzEndpoints are the release-shaped routes FuzzReleaseRequest drives;
// the fuzzer's endpoint byte picks one.
var fuzzEndpoints = []string{"/v1/release", "/v1/synthetic", "/v1/cube"}

// FuzzReleaseRequest posts arbitrary bodies to every release-shaped
// endpoint of one server. Whatever the bytes, the answer is a 200 or a
// client error — never a 5xx — and a client error leaves the ledger
// exactly as it was: a rejected request is always free. The server's small
// body cap (16 KiB) also bounds inline domains at 2^11 cells, so no input
// can make a release expensive.
//
// Run it with: go test -run '^$' -fuzz FuzzReleaseRequest -fuzztime 15s ./internal/server/
func FuzzReleaseRequest(f *testing.F) {
	cfg := testConfig()
	cfg.EpsilonCap = math.MaxFloat64
	cfg.MaxBodyBytes = 16 << 10
	s := newTestServer(f, cfg)
	if rec := putDataset(f, s, "people", testNDJSON(f)); rec.Code != http.StatusCreated {
		f.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	for i, body := range []map[string]any{
		testBody(nil),
		datasetBody("people", map[string]any{"max_order": 2, "synthetic_seed": 3}),
		testBody(map[string]any{"strategy": "cluster", "delta": 1e-6, "workload": map[string]any{"marginals": [][]int{{0, 2}, {1}}}}),
		datasetBody("people", map[string]any{"strategy": "identity", "uniform_budget": true, "max_order": 1}),
		testBody(map[string]any{"schema": []map[string]any{{"name": "a", "cardinality": 1 << 30}}, "rows": [][]int{{0}}, "max_order": 1}),
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), raw)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		ledger := s.Ledger()
		count := ledger.Count()
		eps, delta := ledger.Spent()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			gotEps, gotDelta := ledger.Spent()
			if ledger.Count() != count || gotEps != eps || gotDelta != delta {
				t.Fatalf("%s: %d left the ledger changed (%d charges, ε=%v, δ=%v → %d, ε=%v, δ=%v)\nbody: %q",
					path, rec.Code, count, eps, delta, ledger.Count(), gotEps, gotDelta, body)
			}
		default:
			t.Fatalf("%s: status %d: %s\nbody: %q", path, rec.Code, rec.Body.String(), body)
		}
	})
}
