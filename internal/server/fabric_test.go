package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startWorkers builds n fabric worker servers with the test dataset
// ingested, each behind a real listener, and returns their base URLs plus
// a shutdown func. fabricKey, when non-empty, is the fleet secret the
// workers require on their task endpoint.
func startWorkers(t testing.TB, n int, id, ndjson, fabricKey string) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		cfg := testConfig()
		cfg.FabricWorker = true
		cfg.FabricAPIKey = fabricKey
		ws := newTestServer(t, cfg)
		rec := putDataset(t, ws, id, ndjson)
		if rec.Code != http.StatusCreated {
			t.Fatalf("worker %d ingest: %d %s", i, rec.Code, rec.Body.String())
		}
		hs := httptest.NewServer(ws)
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
		servers[i] = hs
	}
	return urls, servers
}

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

// TestServerFabricBitIdentity is the serving-layer acceptance test: a
// coordinator distributing over a real worker fleet answers /v1/release,
// /v1/synthetic and /v1/cube byte-identically to a local-only server — including
// after a worker is killed mid-fleet — and /v1/metrics reports the
// per-worker task counters.
func TestServerFabricBitIdentity(t *testing.T) {
	nd := testNDJSON(t)
	urls, workers := startWorkers(t, 2, "people", nd, "fleet-secret")

	local := newTestServer(t, testConfig())
	if rec := putDataset(t, local, "people", nd); rec.Code != http.StatusCreated {
		t.Fatalf("local ingest: %d", rec.Code)
	}
	cfg := testConfig()
	cfg.FabricWorkers = urls
	cfg.FabricAPIKey = "fleet-secret"
	coord := newTestServer(t, cfg)
	if rec := putDataset(t, coord, "people", nd); rec.Code != http.StatusCreated {
		t.Fatalf("coordinator ingest: %d", rec.Code)
	}

	request := func(overrides map[string]any) map[string]any {
		body := testBody(overrides)
		delete(body, "rows")
		delete(body, "schema")
		body["dataset_id"] = "people"
		return body
	}
	compare := func(path string, overrides map[string]any) {
		t.Helper()
		want := post(t, local, path, request(overrides))
		got := post(t, coord, path, request(overrides))
		if want.Code != http.StatusOK || got.Code != http.StatusOK {
			t.Fatalf("%s: local %d, fabric %d: %s", path, want.Code, got.Code, got.Body.String())
		}
		sameBody(t, path, bodyMinusBudget(t, want.Body.Bytes()), bodyMinusBudget(t, got.Body.Bytes()))
	}

	compare("/v1/release", map[string]any{"workload": map[string]any{"k": 2}})
	compare("/v1/release", map[string]any{"strategy": "cluster", "seed": int64(11)})
	compare("/v1/synthetic", map[string]any{"synthetic_seed": int64(5)})

	rec := do(t, coord, http.MethodGet, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	m := decode[metricsResponse](t, rec)
	if m.Fabric == nil {
		t.Fatal("metrics: no fabric section on a coordinator")
	}
	if len(m.Fabric.Workers) != 2 {
		t.Fatalf("metrics: %d fabric workers, want 2", len(m.Fabric.Workers))
	}
	var tasks int64
	for _, wm := range m.Fabric.Workers {
		tasks += wm.Tasks
	}
	if tasks == 0 {
		t.Fatal("metrics: fleet completed zero tasks — fabric releases ran locally")
	}

	// Cubes release through a Releaser over the lattice workload, so they
	// distribute too.
	compare("/v1/cube", map[string]any{"max_order": 2})
	compare("/v1/cube", map[string]any{"max_order": 1, "strategy": "workload", "delta": 1e-6})
	var cubeTasks int64
	for _, wm := range decode[metricsResponse](t, do(t, coord, http.MethodGet, "/v1/metrics")).Fabric.Workers {
		cubeTasks += wm.Tasks
	}
	if cubeTasks == tasks {
		t.Fatal("metrics: cube releases sent the fleet no tasks — they ran locally")
	}

	// Kill one worker: the release (fresh seed, so no result-cache replay)
	// must still match local-only bit for bit.
	workers[0].Close()
	compare("/v1/release", map[string]any{"seed": int64(23)})

	// Local-only servers report no fabric section.
	lm := decode[metricsResponse](t, do(t, local, http.MethodGet, "/v1/metrics"))
	if lm.Fabric != nil {
		t.Fatal("metrics: fabric section on a server with no fleet")
	}
}

// TestFabricWorkerEndpointGating: /v1/fabric/task exists only in worker
// mode, is opened by the fleet secret alone — never a tenant key, which
// would bypass the budget ledger — and a worker mixing tenant auth with a
// missing or colliding fabric key refuses to construct at all.
func TestFabricWorkerEndpointGating(t *testing.T) {
	plain := newTestServer(t, testConfig())
	rec := do(t, plain, http.MethodPost, "/v1/fabric/task")
	if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("task endpoint on a non-worker: %d", rec.Code)
	}

	cfg := testConfig()
	cfg.FabricWorker = true
	cfg.APIKeys = []KeyConfig{{Key: "tenant-key"}}
	cfg.FabricAPIKey = "fleet-secret"
	worker := newTestServer(t, cfg)
	postTask := func(key string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/fabric/task", strings.NewReader("x"))
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := postTask(""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated task post: %d, want 401", code)
	}
	// The budget-bypass regression: a valid TENANT key must not open the
	// task endpoint — tasks are not charged, so tenant credentials posting
	// arbitrary-seed tasks could average the noise out of any dataset.
	if code := postTask("tenant-key"); code != http.StatusUnauthorized {
		t.Fatalf("tenant key opened the fabric task endpoint: %d, want 401", code)
	}
	// The fleet secret passes auth (the garbage body then fails as a bad
	// frame — anything but 401 proves the gate opened).
	if code := postTask("fleet-secret"); code == http.StatusUnauthorized {
		t.Fatal("fleet secret refused on the fabric task endpoint")
	}
	// Health stays reachable without credentials — it is the probe target.
	if rec := do(t, worker, http.MethodGet, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz on an authenticated worker: %d, want 200", rec.Code)
	}

	// Misconfigurations that would leave the endpoint reachable by tenants
	// (or unauthenticated next to tenant auth) refuse to construct.
	bad := testConfig()
	bad.FabricWorker = true
	bad.APIKeys = []KeyConfig{{Key: "tenant-key"}}
	if _, err := New(bad); err == nil {
		t.Fatal("worker with tenant auth but no fabric key constructed")
	}
	bad.FabricAPIKey = "tenant-key"
	if _, err := New(bad); err == nil {
		t.Fatal("fabric key equal to a tenant key constructed")
	}
}

// TestHealthEndpoints: healthz always says yes, readyz flips to 503 once a
// drain starts, and neither requires authentication.
func TestHealthEndpoints(t *testing.T) {
	cfg := testConfig()
	cfg.APIKeys = []KeyConfig{{Key: "secret"}}
	s := newTestServer(t, cfg)

	if rec := do(t, s, http.MethodGet, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec := do(t, s, http.MethodGet, "/v1/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	if h := decode[healthResponse](t, rec); h.Status != "ok" {
		t.Fatalf("readyz status %q", h.Status)
	}
	// Metrics still authenticates — the health bypass is narrow.
	if rec := do(t, s, http.MethodGet, "/v1/metrics"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated metrics: %d, want 401", rec.Code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with nothing in flight: %v", err)
	}
	rec = do(t, s, http.MethodGet, "/v1/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}
	if h := decode[healthResponse](t, rec); h.Status != "draining" {
		t.Fatalf("readyz status %q, want draining", h.Status)
	}
	if rec := do(t, s, http.MethodGet, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d — liveness must not flap on drain", rec.Code)
	}
}

// TestDrainWaitsForInflight: Drain blocks until a handler that is still
// mid-request returns, and reports a deadline instead of hanging forever.
func TestDrainWaitsForInflight(t *testing.T) {
	s := newTestServer(t, testConfig())
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPut, "/v1/datasets/slow", pr)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec
	}()
	for s.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain returned with a handler still reading its body")
	}
	cancel()

	if _, err := io.WriteString(pw, testNDJSON(t)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	rec := <-done
	if rec.Code != http.StatusCreated {
		t.Fatalf("slow PUT: %d %s", rec.Code, rec.Body.String())
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after the handler finished: %v", err)
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

// TestResultCacheTopologyIndependent: the result-cache key ignores fleet
// topology, so an entry computed through the fabric replays byte-identical
// after the entire fleet is gone — and vice versa a local-only entry
// serves a fabric-configured server.
func TestResultCacheTopologyIndependent(t *testing.T) {
	nd := testNDJSON(t)
	urls, workers := startWorkers(t, 2, "people", nd, "")
	cfg := testConfig()
	cfg.FabricWorkers = urls
	s := newTestServer(t, cfg)
	if rec := putDataset(t, s, "people", nd); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}

	body := testBody(nil)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = "people"

	first := post(t, s, "/v1/release", body)
	if first.Code != http.StatusOK {
		t.Fatalf("fabric release: %d %s", first.Code, first.Body.String())
	}
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.ResultCache == nil || m.ResultCache.Misses != 1 {
		t.Fatalf("after first release: result cache %+v, want 1 miss", m.ResultCache)
	}

	// Fleet gone: the identical request must be a cache hit, not a
	// re-execution that would now take the local path.
	for _, w := range workers {
		w.Close()
	}
	second := post(t, s, "/v1/release", body)
	if second.Code != http.StatusOK {
		t.Fatalf("replay: %d", second.Code)
	}
	sameBody(t, "cache replay across topology change",
		bodyMinusBudget(t, first.Body.Bytes()), bodyMinusBudget(t, second.Body.Bytes()))
	m = decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.ResultCache.Hits != 1 {
		t.Fatalf("replay was not a cache hit: %+v", m.ResultCache)
	}
	if spent := decode[budgetResponse](t, do(t, s, http.MethodGet, "/v1/budget")); spent.EpsilonSpent != 1 {
		t.Fatalf("cache hit charged the ledger: ε spent %v, want 1", spent.EpsilonSpent)
	}
}

// TestResultCacheAppendInvalidation: ?mode=append installs a new dataset
// version, so a cached release for the old bits can never replay — the
// same request re-runs against the new counts (and re-charges).
func TestResultCacheAppendInvalidation(t *testing.T) {
	nd := testNDJSON(t)
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "people", nd); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d", rec.Code)
	}
	body := testBody(nil)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = "people"

	before := post(t, s, "/v1/release", body)
	if before.Code != http.StatusOK {
		t.Fatalf("release: %d", before.Code)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/people?mode=append", strings.NewReader(nd))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	after := post(t, s, "/v1/release", body)
	if after.Code != http.StatusOK {
		t.Fatalf("release after append: %d", after.Code)
	}
	a := bodyMinusBudget(t, before.Body.Bytes())
	b := bodyMinusBudget(t, after.Body.Bytes())
	if string(a["tables"]) == string(b["tables"]) {
		t.Fatal("release after append replayed the pre-append tables — stale cache entry served")
	}
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.ResultCache.Hits != 0 || m.ResultCache.Misses != 2 {
		t.Fatalf("result cache %+v, want 2 misses and no hits across an append", m.ResultCache)
	}
	// The new version's entry replays normally.
	replay := post(t, s, "/v1/release", body)
	sameBody(t, "post-append replay", b, bodyMinusBudget(t, replay.Body.Bytes()))
}
