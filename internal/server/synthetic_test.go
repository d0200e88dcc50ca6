package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// encodeSyntheticBody renders a /v1/synthetic body from decoded rows. It
// is what /v1/synthetic ran before it rendered rows straight from their
// cell indices, kept as the oracle encodeSyntheticRows must match byte for
// byte (TestSyntheticCellsMatchRows, FuzzSyntheticBody); it in turn is held
// to json.Marshal by TestSyntheticEncoderMatchesJSON.
func encodeSyntheticBody(b syntheticBody) ([]byte, error) {
	strategy, err := json.Marshal(b.Strategy)
	if err != nil {
		return nil, err
	}
	size := len(`{"strategy":,"count":,"rows":[]}`) + len(strategy) + 20
	for _, row := range b.Rows {
		size += 2 + 2*len(row) // brackets and, per value, one digit and a comma
	}
	dst := make([]byte, 0, size)
	dst = append(dst, `{"strategy":`...)
	dst = append(dst, strategy...)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	dst = append(dst, `,"rows":`...)
	if b.Rows == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range b.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIntsJSON(dst, row)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// oracleSyntheticBody is the body /v1/synthetic sent before rows were
// rendered from cells: SampleTuples' rows, nil rows sent as [].
func oracleSyntheticBody(t testing.TB, strategy string, s *repro.Schema, counts []int64, seed int64) []byte {
	t.Helper()
	tab, _ := synth.SampleTuples(s, counts, seed)
	rows := tab.Rows
	if rows == nil {
		rows = [][]int{}
	}
	want, err := encodeSyntheticBody(syntheticBody{Strategy: strategy, Count: tab.Count(), Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkSyntheticRows fails t unless encodeSyntheticRows over SampleCells
// renders the oracle's bytes, into a body allocated at its exact length.
func checkSyntheticRows(t testing.TB, name, strategy string, s *repro.Schema, counts []int64, seed int64) {
	t.Helper()
	want := oracleSyntheticBody(t, strategy, s, counts, seed)
	cells, _ := synth.SampleCells(s, counts, seed)
	got, err := encodeSyntheticRows(strategy, s, cells)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %.300s\nwant %.300s", name, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: body cap %d, len %d: not presized exactly", name, cap(got), len(got))
	}
}

// TestSyntheticCellsMatchRows: the body rendered from cell indices equals
// the one rendered from SampleTuples' decoded rows, at the paper's shapes
// (NLTCS: 16 binary attributes; Adult: codes up to 15 and padded
// cardinalities) over real releases at ε ∈ {1, 0.05}, and on the edges:
// no rows at all, and all mass on padding cells.
func TestSyntheticCellsMatchRows(t *testing.T) {
	for _, shape := range []struct {
		name string
		tab  func() *dataset.Table
	}{
		{"nltcs", func() *dataset.Table { return dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount) }},
		{"adult", func() *dataset.Table { return dataset.SyntheticAdult(1, 4000) }},
	} {
		tab := shape.tab()
		schema := tab.Schema
		w := repro.AllKWayMarginals(schema, 2)
		rel, err := repro.NewReleaser(schema, w)
		if err != nil {
			t.Fatal(err)
		}
		x, err := tab.Vector()
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{1, 0.05} {
			res, err := rel.ReleaseVector(context.Background(), x, repro.ReleaseSpec{Epsilon: eps, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			xhat, err := repro.ReleaseVectorCoefficients(schema, w, res)
			if err != nil {
				t.Fatal(err)
			}
			counts := synth.RoundToCounts(xhat)
			name := fmt.Sprintf("%s ε=%v", shape.name, eps)
			checkSyntheticRows(t, name, res.Strategy, schema, counts, 5)

			// The server's pipeline: the Releaser's cells, rendered.
			cells, err := rel.SyntheticCells(context.Background(), res, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeSyntheticRows(res.Strategy, schema, cells)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleSyntheticBody(t, res.Strategy, schema, counts, 5); !bytes.Equal(got, want) {
				t.Fatalf("%s: Releaser.SyntheticCells body differs from the oracle", name)
			}
		}

		n := schema.DomainSize()
		checkSyntheticRows(t, shape.name+" zero rows", "fourier", schema, make([]int64, n), 1)
		padding := make([]int64, n)
		for idx := range padding {
			if !schema.IsValid(idx) {
				padding[idx] = 3
			}
		}
		checkSyntheticRows(t, shape.name+" all padding", "fourier", schema, padding, 1)
	}
	// With no rows the body still carries "rows":[], never null.
	got, err := encodeSyntheticRows("fourier", dataset.NLTCSSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"strategy":"fourier","count":0,"rows":[]}`; string(got) != want {
		t.Fatalf("zero rows: got %s, want %s", got, want)
	}
}

// FuzzSyntheticBody: for a random schema (1–8 attributes of cardinality
// 1–40), random counts that may land on padding cells, and a random seed,
// the cell renderer matches the decoded-rows oracle byte for byte.
func FuzzSyntheticBody(f *testing.F) {
	f.Add([]byte{2, 2, 3, 1, 0, 4, 2}, int64(1))
	f.Add([]byte{0, 15, 39, 5, 9, 10, 1, 1, 1, 7, 3, 2, 2, 2, 2, 2}, int64(-7))
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1, 1}, int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		// data[0] picks the attribute count, the next bytes their
		// cardinalities, and the rest the counts.
		nattrs := 1 + int(data[0])%8
		data = data[1:]
		attrs := make([]dataset.Attribute, nattrs)
		for i := range attrs {
			card := 1
			if i < len(data) {
				card = 1 + int(data[i])%40
			}
			attrs[i] = dataset.Attribute{Name: "a" + strconv.Itoa(i), Cardinality: card}
		}
		data = data[min(nattrs, len(data)):]
		s, err := dataset.NewSchema(attrs)
		if err != nil || s.Dim() > 16 {
			return // keep the domain small enough to fuzz quickly
		}
		counts := make([]int64, s.DomainSize())
		// Each 3-byte group adds a small count to a cell of the domain,
		// valid or padding alike.
		for ; len(data) >= 3; data = data[3:] {
			idx := int(binary.LittleEndian.Uint16(data)) % len(counts)
			counts[idx] += int64(data[2]%8) - 1
		}
		checkSyntheticRows(t, fmt.Sprint(attrs), "fourier", s, counts, seed)
	})
}
