package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestRemovedRoutesStayGone: every route listed in
// testdata/removed_routes.txt is 404/405 without a key, with a tenant key,
// and on a server with tenant auth; and the server routes exactly the
// endpoints below, so any new route — an uncharged one above all — has to
// be added here on purpose.
func TestRemovedRoutesStayGone(t *testing.T) {
	f, err := os.Open("testdata/removed_routes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var removed [][2]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		method, path, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		removed = append(removed, [2]string{method, path})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("no removed routes listed")
	}

	open := newTestServer(t, testConfig())
	authCfg := testConfig()
	authCfg.APIKeys = []KeyConfig{{Key: "tenant-key"}}
	auth := newTestServer(t, authCfg)
	for _, rt := range removed {
		for _, c := range []struct {
			name string
			s    *Server
			key  string
		}{
			{"no key", open, ""},
			{"tenant key", open, "tenant-key"},
			{"tenant auth, no key", auth, ""},
			{"tenant auth, tenant key", auth, "tenant-key"},
		} {
			req := httptest.NewRequest(rt[0], rt[1], strings.NewReader("x"))
			if c.key != "" {
				req.Header.Set("X-API-Key", c.key)
			}
			rec := httptest.NewRecorder()
			c.s.ServeHTTP(rec, req)
			if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s (%s): %d, want 404 or 405", rt[0], rt[1], c.name, rec.Code)
			}
		}
	}

	want := []string{
		"DELETE /v1/datasets/{id}",
		"GET /v1/budget",
		"GET /v1/datasets",
		"GET /v1/datasets/{id}",
		"GET /v1/metrics",
		"POST /v1/cube",
		"POST /v1/release",
		"POST /v1/synthetic",
		"PUT /v1/datasets/{id}",
	}
	for _, s := range []*Server{open, auth} {
		got := slices.Sorted(slices.Values(s.metricNames))
		if !slices.Equal(got, want) {
			t.Fatalf("routed endpoints %q, want %q", got, want)
		}
	}
}
