package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// nltcsServer serves the NLTCS shape (d=16, 21,576 tuples) as dataset "d".
func nltcsServer(t testing.TB) *Server {
	t.Helper()
	tab := dataset.SyntheticNLTCS(1, dataset.NLTCSTupleCount)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{EpsilonCap: math.MaxFloat64, MaxWorkers: 2})
	if _, err := s.Store().PutCounts("d", tab.Schema, x, int64(tab.Count())); err != nil {
		t.Fatal(err)
	}
	return s
}

// nltcsK3 is a cacheable NLTCS k=3 release: 560 tables, a body of ≈115 KB.
const nltcsK3 = `{"dataset_id":"d","workload":{"k":3},"epsilon":1,"seed":1}`

func serveString(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// discardWriter is a ResponseWriter that keeps only the status and the
// number of body bytes written.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestCachedHitDoesNotCopyBody: a result-cache hit writes the cached body
// as it is. Serving it must allocate far less than the body itself (under
// an eighth of it per hit); a hit that copied the body, as writeSpliced
// once did, allocates more than all of it.
func TestCachedHitDoesNotCopyBody(t *testing.T) {
	s := nltcsServer(t)
	miss := serveString(s, "/v1/release", nltcsK3)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss: %d %s", miss.Code, miss.Body.String())
	}
	const hits = 200
	reqs := make([]*http.Request, hits)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/release", strings.NewReader(nltcsK3))
	}
	w := &discardWriter{header: make(http.Header)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		w.n = 0
		s.ServeHTTP(w, r)
		if w.code != http.StatusOK || w.n != miss.Body.Len() {
			t.Fatalf("hit: status %d, %d bytes; the miss sent %d", w.code, w.n, miss.Body.Len())
		}
	}
	runtime.ReadMemStats(&after)
	if st := s.results.Stats(); st.Hits != hits {
		t.Fatalf("cache hits %d, want %d", st.Hits, hits)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("%d bytes allocated per hit of a %d-byte body", perHit, miss.Body.Len())
	if limit := uint64(miss.Body.Len() / 8); perHit >= limit {
		t.Fatalf("a hit allocates %d bytes; want under %d (1/8 of the %d-byte body)", perHit, limit, miss.Body.Len())
	}
}

// TestCachedHitMatchesMiss: over a real HTTP connection, a hit sends the
// same headers and body as the miss that filled the cache, both for a
// body net/http frames with Content-Length (under 2 KB) and for one it
// sends chunked (over 4 KB).
func TestCachedHitMatchesMiss(t *testing.T) {
	small := newTestServer(t, testConfig())
	if rec := putDataset(t, small, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	for _, c := range []struct {
		name    string
		s       *Server
		body    string
		chunked bool
	}{
		{"small", small, `{"dataset_id":"d1","workload":{"k":1},"epsilon":1,"seed":7}`, false},
		{"large", nltcsServer(t), nltcsK3, true},
	} {
		ts := httptest.NewServer(c.s)
		get := func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/v1/release", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", c.name, resp.StatusCode, b)
			}
			return resp, b
		}
		missResp, missBody := get()
		hitResp, hitBody := get()
		ts.Close()
		if st := c.s.results.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("%s: cache stats %+v, want 1 hit and 1 miss", c.name, st)
		}
		if !bytes.Equal(hitBody, missBody) {
			t.Fatalf("%s: hit body differs from the miss:\n%s\nvs\n%s", c.name, hitBody, missBody)
		}
		if got := len(missResp.TransferEncoding) > 0; got != c.chunked {
			t.Fatalf("%s (%d bytes): chunked %v, want %v", c.name, len(missBody), got, c.chunked)
		}
		if c.chunked != (len(missBody) > 4<<10) || !c.chunked && len(missBody) >= 2<<10 {
			t.Fatalf("%s: a %d-byte body does not test its framing", c.name, len(missBody))
		}
		if hitResp.ContentLength != missResp.ContentLength ||
			strings.Join(hitResp.TransferEncoding, ",") != strings.Join(missResp.TransferEncoding, ",") {
			t.Fatalf("%s: hit framed as length %d %v, miss as %d %v", c.name,
				hitResp.ContentLength, hitResp.TransferEncoding, missResp.ContentLength, missResp.TransferEncoding)
		}
		// Date and the request ID are per response by design.
		for _, h := range []http.Header{missResp.Header, hitResp.Header} {
			h.Del("Date")
			h.Del("X-Request-Id")
		}
		if len(hitResp.Header) != len(missResp.Header) {
			t.Fatalf("%s: hit headers %v, miss headers %v", c.name, hitResp.Header, missResp.Header)
		}
		for k, v := range missResp.Header {
			if strings.Join(hitResp.Header[k], ",") != strings.Join(v, ",") {
				t.Fatalf("%s: header %s: hit %v, miss %v", c.name, k, hitResp.Header[k], v)
			}
		}
	}
}

// TestCachedHitConcurrent: hits on one cache entry from several goroutines
// all send the miss's bytes. Under -race this checks that serving a shared
// payload only ever reads it.
func TestCachedHitConcurrent(t *testing.T) {
	s := nltcsServer(t)
	miss := serveString(s, "/v1/release", nltcsK3)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss: %d %s", miss.Code, miss.Body.String())
	}
	want := miss.Body.Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := serveString(s, "/v1/release", nltcsK3)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("hit: %d, body equal to the miss: %v", rec.Code, bytes.Equal(rec.Body.Bytes(), want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.results.Stats(); st.Hits != 40 {
		t.Fatalf("cache hits %d, want 40", st.Hits)
	}
}
