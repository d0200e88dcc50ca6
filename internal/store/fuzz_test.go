package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fuzzMaxDim bounds the schemas FuzzIngestNDJSON ingests: the store
// allocates one counter per cell of the 2^d domain, so a fuzzed header
// must not ask for billions of them.
const fuzzMaxDim = 16

// referenceIngest decodes an NDJSON body with plain encoding/json, one
// line at a time: lines split at '\n' and trimmed, blank lines skipped,
// the first line the schema header (exactly one JSON object, no unknown
// fields) and every other line exactly one JSON array of integers, one per
// attribute. ok is false when the body is not a dataset.
func referenceIngest(body []byte) (schema *dataset.Schema, counts []float64, rows int64, ok bool) {
	for _, raw := range bytes.Split(body, []byte("\n")) {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if schema == nil {
			var hdr ingestHeader
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&hdr); err != nil {
				return nil, nil, 0, false
			}
			if _, err := dec.Token(); err != io.EOF {
				return nil, nil, 0, false
			}
			if len(hdr.Schema) == 0 {
				return nil, nil, 0, false
			}
			attrs := make([]dataset.Attribute, len(hdr.Schema))
			for i, a := range hdr.Schema {
				attrs[i] = dataset.Attribute{Name: a.Name, Cardinality: a.Cardinality}
			}
			s, err := dataset.NewSchema(attrs)
			if err != nil {
				return nil, nil, 0, false
			}
			schema, counts = s, make([]float64, s.DomainSize())
			continue
		}
		// json.Unmarshal decodes null into a nil slice; a row must be an
		// array.
		var row []int64
		if line[0] != '[' || json.Unmarshal(line, &row) != nil || len(row) != len(schema.Attrs) {
			return nil, nil, 0, false
		}
		tuple := make([]int, len(row))
		for i, v := range row {
			tuple[i] = int(v)
		}
		idx, err := schema.Encode(tuple)
		if err != nil {
			return nil, nil, 0, false
		}
		counts[idx]++
		rows++
	}
	return schema, counts, rows, schema != nil
}

// headerDim is the dimension the store would allocate for body: its first
// non-blank line decoded as the store decodes headers (0 if it is none).
func headerDim(body []byte) int {
	for _, raw := range bytes.Split(body, []byte("\n")) {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var hdr ingestHeader
		if json.NewDecoder(bytes.NewReader(line)).Decode(&hdr) != nil {
			return 0
		}
		dim := 0
		for _, a := range hdr.Schema {
			dim += dataset.Attribute{Cardinality: a.Cardinality}.BitWidth()
		}
		return dim
	}
	return 0
}

// FuzzIngestNDJSON: the streaming ingest accepts exactly the bodies a
// plain encoding/json decode of the same lines accepts, and then holds the
// same schema, row count and counts; a refused body registers nothing.
// Seeded from the ingest tests' bodies.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add([]byte(ndjsonBody(testRows(40))))
	f.Add([]byte(testHeader + "\n[0,1,2]\n\n[1,0,3]"))
	f.Add([]byte(testHeader + "\n"))
	f.Add([]byte(testHeader + " \r\n [2,1,3] \r\n"))
	f.Add([]byte(testHeader + " trailing\n[0,1,2]\n"))
	f.Add([]byte(testHeader + "\nnull\n"))
	for _, body := range []string{
		"", "\n\n  \n", "[0,1,2]\n", `{"schema":[]}` + "\n",
		`{"schema":[{"name":"a","cardinality":0}]}` + "\n",
		testHeader + "\n[0,1,2]\n[1,0",
		testHeader + "\n[0,1,2]\n[0,1,9]\n[1,0,0]\n",
		testHeader + "\n[-1,0,0]\n", testHeader + "\n[0,1]\n",
		testHeader + "\n[0.5,1,2]\n", testHeader + "\n{\"color\":0}\n",
		testHeader + "\n[0,1,2] [0,1,2]\n", testHeader + "\n[1e0,1,2]\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if headerDim(body) > fuzzMaxDim {
			return
		}
		s := memStore(t)
		info, err := s.IngestNDJSON(context.Background(), "d", bytes.NewReader(body), IngestOptions{Workers: 2})
		schema, want, rows, ok := referenceIngest(body)
		if err != nil {
			if !errors.Is(err, ErrInvalidDataset) {
				t.Fatalf("refusal %v is not ErrInvalidDataset", err)
			}
			if _, gerr := s.Get("d"); !errors.Is(gerr, ErrNotFound) {
				t.Fatalf("refused body (%v) registered a dataset: %v", err, gerr)
			}
			if ok {
				t.Fatalf("ingest refused a body encoding/json decodes: %v\n%q", err, body)
			}
			return
		}
		if !ok {
			t.Fatalf("ingest accepted a body encoding/json refuses:\n%q", body)
		}
		h, err := s.Get("d")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		if !h.Schema().Equal(schema) || info.Rows != rows || h.Rows() != rows {
			t.Fatalf("ingested %d rows over %v; reference %d rows over %v", info.Rows, h.Schema().Attrs, rows, schema.Attrs)
		}
		got := DenseCounts(h)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cell %d: ingested %v, reference %v\n%q", i, got[i], want[i], strings.TrimSpace(string(body)))
			}
		}
	})
}
