package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// TestSyntheticEncoderMatchesJSON: the append-based encoder is byte-
// identical to encoding/json on the synthetic body, which the result cache
// replays and clients parse.
func TestSyntheticEncoderMatchesJSON(t *testing.T) {
	cases := map[string]syntheticBody{
		"nil rows":       {Strategy: "fourier", Count: 0, Rows: nil},
		"empty rows":     {Strategy: "fourier", Count: 0, Rows: [][]int{}},
		"empty tuples":   {Strategy: "identity", Count: 2, Rows: [][]int{{}, {}}},
		"nil tuple":      {Strategy: "identity", Count: 2, Rows: [][]int{nil, {1}}},
		"single digits":  {Strategy: "cluster", Count: 3, Rows: [][]int{{0, 1, 9}, {9, 0, 0}, {5, 5, 5}}},
		"multi-digit":    {Strategy: "query", Count: 2, Rows: [][]int{{10, 99, 100, 12345}, {1 << 40, 7, 1<<63 - 1}}},
		"negative":       {Strategy: "fourier", Count: -1, Rows: [][]int{{-1, -10, -9}, {-1 << 63, 0}}},
		"escaped string": {Strategy: `<&"\` + "\u2028é\x01>", Count: 1, Rows: [][]int{{3}}},
		"empty strategy": {Strategy: "", Count: 1, Rows: [][]int{{0}}},
	}
	for name, body := range cases {
		want, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeSyntheticBody(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// BenchmarkSyntheticData times the three post-release steps of
// /v1/synthetic at the NLTCS shape (d=16, k=2 Fourier, ε=1): round
// apportions the materialised vector into counts, sample draws the rows,
// encode renders the response body.
func BenchmarkSyntheticData(b *testing.B) {
	schema := dataset.NLTCSSchema()
	tab := dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
	w := repro.AllKWayMarginals(schema, 2)
	rel, err := repro.NewReleaser(schema, w)
	if err != nil {
		b.Fatal(err)
	}
	x, err := tab.Vector()
	if err != nil {
		b.Fatal(err)
	}
	res, err := rel.ReleaseVector(context.Background(), x, repro.ReleaseSpec{Epsilon: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	xhat, err := repro.ReleaseVectorCoefficients(schema, w, res)
	if err != nil {
		b.Fatal(err)
	}
	counts := synth.RoundToCounts(xhat)
	syn, _ := synth.SampleTuples(schema, counts, 5)
	body := syntheticBody{Strategy: res.Strategy, Count: syn.Count(), Rows: syn.Rows}

	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			synth.RoundToCounts(xhat)
		}
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			synth.SampleTuples(schema, counts, 5)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := encodeSyntheticBody(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
