package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// bodyMinusBudget strips the live budget block so two responses with
// different ledger histories can be compared byte for byte.
func bodyMinusBudget(t testing.TB, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	delete(m, "budget")
	return m
}

func sameBody(t testing.TB, label string, a, b map[string]json.RawMessage) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: response shape differs", label)
	}
	for k := range a {
		if string(a[k]) != string(b[k]) {
			t.Fatalf("%s: field %q differs:\n%s\n%s", label, k, a[k], b[k])
		}
	}
}

// gzipped compresses a string.
func gzipped(t testing.TB, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := io.WriteString(zw, s); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func putGzip(t testing.TB, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, path, bytes.NewReader(body))
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestGzipIngest: a gzip-compressed NDJSON stream ingests to the same
// dataset bits as the plain stream, and releases identically.
func TestGzipIngest(t *testing.T) {
	nd := testNDJSON(t)
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "plain", nd); rec.Code != http.StatusCreated {
		t.Fatalf("plain PUT: %d", rec.Code)
	}
	if rec := putGzip(t, s, "/v1/datasets/zipped", gzipped(t, nd)); rec.Code != http.StatusCreated {
		t.Fatalf("gzip PUT: %d %s", rec.Code, rec.Body.String())
	}

	release := func(id string) map[string]json.RawMessage {
		body := testBody(nil)
		delete(body, "rows")
		delete(body, "schema")
		body["dataset_id"] = id
		rec := post(t, s, "/v1/release", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("release over %q: %d %s", id, rec.Code, rec.Body.String())
		}
		return bodyMinusBudget(t, rec.Body.Bytes())
	}
	sameBody(t, "gzip vs plain ingest", release("plain"), release("zipped"))

	// Appending a gzipped delta doubles every count, same as a plain append.
	if rec := putGzip(t, s, "/v1/datasets/zipped?mode=append", gzipped(t, nd)); rec.Code != http.StatusCreated {
		t.Fatalf("gzip append: %d %s", rec.Code, rec.Body.String())
	}
	info := decode[map[string]any](t, do(t, s, http.MethodGet, "/v1/datasets/zipped"))
	if got := info["rows"].(float64); got != 600 {
		t.Fatalf("rows after gzip append: %v, want 600", got)
	}
}

// TestGzipIngestRejections: corrupt or mislabelled streams are 400s, and
// rejection is transactional — the resident dataset keeps its bits.
func TestGzipIngestRejections(t *testing.T) {
	nd := testNDJSON(t)
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d", nd); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}

	// Not gzip at all: the header check fails before any ingest work.
	if rec := putGzip(t, s, "/v1/datasets/bad", []byte(nd)); rec.Code != http.StatusBadRequest {
		t.Fatalf("plain bytes labelled gzip: %d, want 400", rec.Code)
	}
	// Truncated stream: corruption surfaces mid-ingest, and the failed
	// replace must not have registered anything.
	z := gzipped(t, nd)
	if rec := putGzip(t, s, "/v1/datasets/bad", z[:len(z)-20]); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated gzip: %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/bad"); rec.Code != http.StatusNotFound {
		t.Fatalf("dataset registered from a rejected stream: %d", rec.Code)
	}
	// A failed append leaves the existing dataset untouched.
	if rec := putGzip(t, s, "/v1/datasets/d?mode=append", z[:len(z)-20]); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated gzip append: %d, want 400", rec.Code)
	}
	info := decode[map[string]any](t, do(t, s, http.MethodGet, "/v1/datasets/d"))
	if got := info["rows"].(float64); got != 300 {
		t.Fatalf("rows after rejected append: %v, want 300", got)
	}
	// Unsupported encodings are refused up front.
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/bad", strings.NewReader(nd))
	req.Header.Set("Content-Encoding", "br")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("Content-Encoding br: %d, want 400", rec.Code)
	}
}

// TestGzipIngestExpansionCap: with MaxIngestBytes set, a tiny gzip body
// that decompresses past gzipExpansionCap times the wire limit is refused
// mid-stream (transactionally) instead of buying ~1000x ingest work inside
// the byte budget — while an honestly compressed stream under the cap
// still ingests.
func TestGzipIngestExpansionCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxIngestBytes = 4096
	s := newTestServer(t, cfg)

	// An honest stream: well within both the wire and expansion budgets.
	nd := testNDJSON(t)
	if rec := putGzip(t, s, "/v1/datasets/ok", gzipped(t, nd)); rec.Code != http.StatusCreated {
		t.Fatalf("honest gzip PUT: %d %s", rec.Code, rec.Body.String())
	}

	// A bomb: valid NDJSON rows repeated far past 32x the wire limit
	// compress to a few hundred bytes.
	var bomb strings.Builder
	bomb.WriteString(`{"schema":[{"name":"a","cardinality":2}]}` + "\n")
	for int64(bomb.Len()) <= (gzipExpansionCap+1)*cfg.MaxIngestBytes {
		bomb.WriteString("[1]\n")
	}
	z := gzipped(t, bomb.String())
	if int64(len(z)) > cfg.MaxIngestBytes {
		t.Fatalf("test bomb does not fit the wire budget: %d > %d", len(z), cfg.MaxIngestBytes)
	}
	rec := putGzip(t, s, "/v1/datasets/bomb", z)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("gzip bomb: %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "expands past") {
		t.Fatalf("bomb rejection does not name the expansion cap: %s", rec.Body.String())
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/bomb"); rec.Code != http.StatusNotFound {
		t.Fatalf("dataset registered from a rejected bomb: %d", rec.Code)
	}
}
