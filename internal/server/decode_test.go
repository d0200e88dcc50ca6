package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// oracleRequest decodes a release request the way encoding/json alone
// does: its outer rows and counts fields shadow the embedded request's
// direct decoders, so the two bulk fields land in plain [][]int and
// []float64 while every other field decodes exactly as in releaseRequest.
type oracleRequest struct {
	releaseRequest
	Rows   [][]int   `json:"rows,omitempty"`
	Counts []float64 `json:"counts,omitempty"`
}

// FuzzRowsDecode is the differential check of the direct rows and counts
// decoders against encoding/json: on any bytes, as a bare value and as a
// whole request decoded with DisallowUnknownFields, both accept or both
// refuse, and what they accept is the same — values bit for bit, nil
// versus empty at every level.
//
// Run it with: go test -run '^$' -fuzz FuzzRowsDecode -fuzztime 10s ./internal/server/
func FuzzRowsDecode(f *testing.F) {
	for _, seed := range releaseRequestCorpus(f) {
		f.Add(seed)
		var fields map[string]json.RawMessage
		if json.Unmarshal(seed, &fields) == nil {
			for _, k := range []string{"rows", "counts"} {
				if v, ok := fields[k]; ok {
					f.Add([]byte(v))
				}
			}
		}
	}
	for _, s := range []string{
		`null`, `[]`, `[[]]`, `[null]`, `[[null]]`, `[[1,null,2]]`, ` [ [ 1 , 2 ] ,[3]] `,
		"\t[\n[0,\r1]]", `[[-0]]`, `[[1.0]]`, `[[1e2]]`, `[[1E+2]]`, `[[9223372036854775807]]`,
		`[[-9223372036854775808]]`, `[[9223372036854775808]]`, `[[-9223372036854775809]]`,
		`[["1"]]`, `[[true]]`, `[[{}]]`, `[[[1]]]`, `[1]`, `{}`, `"x"`, `true`, `1`,
		`[1,2.5,-0,1e308,1e309,-1e400,5e-324,1e-400,null]`, `[0.1,"2"]`,
		`{"rows":[[1]],"rows":[[2,3]]}`, `{"rows":[[1,2]],"rows":[[null]]}`, `{"rows":[[1]],"rows":null}`,
		`{"counts":[1,2,3],"counts":[null]}`, `{"counts":[1],"counts":null,"counts":[null,null]}`,
		`{"rows":[[1]],"bogus":1}`, `{"rows":[[1]],"counts":[1]}`, `{"rows":[[1.5]],"epsilon":"x"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows rowsJSON
		var wantRows [][]int
		errR, wantErrR := json.Unmarshal(data, &rows), json.Unmarshal(data, &wantRows)
		if (errR == nil) != (wantErrR == nil) {
			t.Fatalf("rows %q: error %v, encoding/json %v", data, errR, wantErrR)
		}
		if errR == nil && !reflect.DeepEqual([][]int(rows), wantRows) {
			t.Fatalf("rows %q: %#v, encoding/json %#v", data, rows, wantRows)
		}
		var counts countsJSON
		var wantCounts []float64
		errC, wantErrC := json.Unmarshal(data, &counts), json.Unmarshal(data, &wantCounts)
		if (errC == nil) != (wantErrC == nil) {
			t.Fatalf("counts %q: error %v, encoding/json %v", data, errC, wantErrC)
		}
		if errC == nil {
			sameFloats(t, data, counts, wantCounts)
		}

		var got releaseRequest
		var want oracleRequest
		errG, errW := decodeStrict(data, &got), decodeStrict(data, &want)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("request %q: error %v, encoding/json %v", data, errG, errW)
		}
		if errG != nil {
			return
		}
		if !reflect.DeepEqual([][]int(got.Rows), want.Rows) {
			t.Fatalf("request %q: rows %#v, encoding/json %#v", data, got.Rows, want.Rows)
		}
		sameFloats(t, data, got.Counts, want.Counts)
		got.Rows, got.Counts = nil, nil
		if !reflect.DeepEqual(got, want.releaseRequest) {
			t.Fatalf("request %q: other fields differ:\n%#v\n%#v", data, got, want.releaseRequest)
		}
	})
}

// decodeStrict decodes like the server's request decoder.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sameFloats fails t unless got and want agree bit for bit, nil-ness too.
func sameFloats(t *testing.T, data []byte, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("counts %q: %#v, encoding/json %#v", data, got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("counts %q: [%d] = %v, encoding/json %v", data, i, got[i], want[i])
		}
	}
}

// releaseRequestCorpus returns the request bodies of FuzzReleaseRequest's
// committed corpus.
func releaseRequestCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReleaseRequest", "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("FuzzReleaseRequest corpus: %v (%d files)", err, len(paths))
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			quoted, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			body, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
			if err != nil {
				tb.Fatalf("%s: %v", p, err)
			}
			out = append(out, []byte(body))
		}
	}
	return out
}

// TestRowsDecodeSharesOneArray: decoded rows are capacity-capped views of
// one backing array, so appending to one row never writes into the next.
func TestRowsDecodeSharesOneArray(t *testing.T) {
	var r rowsJSON
	if err := json.Unmarshal([]byte(`[[1,2],[3],[],[4,5,6]]`), &r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([][]int(r), [][]int{{1, 2}, {3}, {}, {4, 5, 6}}) {
		t.Fatalf("decoded %v", r)
	}
	for i, row := range r {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(row), len(row))
		}
	}
	if next := unsafe.Add(unsafe.Pointer(&r[0][1]), unsafe.Sizeof(0)); next != unsafe.Pointer(&r[1][0]) {
		t.Fatal("rows do not share one backing array")
	}
	_ = append(r[0], 99)
	if r[1][0] != 3 {
		t.Fatal("append to a row overwrote the next one")
	}
}
