package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

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
