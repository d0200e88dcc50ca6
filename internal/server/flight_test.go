package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes — the flight
// tests line goroutines up on observable state, never on sleeps alone.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightGroupCoalesces: concurrent do calls on one key run fn once and
// hand every caller the same payload; exactly one caller leads.
func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	registered := make(chan struct{})
	var regOnce sync.Once
	g.barrier = func(string) { regOnce.Do(func() { close(registered) }) }
	block := make(chan struct{})
	var calls atomic.Int64
	fn := func() ([]byte, error) {
		calls.Add(1)
		<-block
		return []byte("payload"), nil
	}
	const followers = 4
	var wg sync.WaitGroup
	var leads atomic.Int64
	results := make([][]byte, followers+1)
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var led bool
		results[0], led, errs[0] = g.do(context.Background(), "k", fn, nil)
		if led {
			leads.Add(1)
		}
	}()
	<-registered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var led bool
			results[i], led, errs[i] = g.do(context.Background(), "k", fn, nil)
			if led {
				leads.Add(1)
			}
		}(i)
	}
	waitFor(t, "followers to park", func() bool { return g.waiting("k") == followers })
	close(block)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if n := leads.Load(); n != 1 {
		t.Fatalf("%d callers led, want exactly 1", n)
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "payload" {
			t.Fatalf("caller %d got (%q, %v), want the shared payload", i, results[i], errs[i])
		}
	}
}

// TestFlightFollowerCancelDetaches: a follower whose own context dies
// returns its ctx error immediately while the leader keeps running and
// completes for everyone else.
func TestFlightFollowerCancelDetaches(t *testing.T) {
	g := newFlightGroup()
	registered := make(chan struct{})
	var regOnce sync.Once
	g.barrier = func(string) { regOnce.Do(func() { close(registered) }) }
	block := make(chan struct{})
	leaderRes := make(chan error, 1)
	go func() {
		payload, led, err := g.do(context.Background(), "k", func() ([]byte, error) {
			<-block
			return []byte("ok"), nil
		}, nil)
		if !led || err != nil || string(payload) != "ok" {
			leaderRes <- errors.New("leader did not complete normally")
			return
		}
		leaderRes <- nil
	}()
	<-registered
	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	var waited atomic.Int64
	go func() {
		_, led, err := g.do(ctx, "k", func() ([]byte, error) {
			return nil, errors.New("follower must not execute")
		}, func() { waited.Add(1) })
		if led {
			followerErr <- errors.New("follower led")
			return
		}
		followerErr <- err
	}()
	waitFor(t, "follower to park", func() bool { return g.waiting("k") == 1 })
	cancel()
	if err := <-followerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
	}
	if waited.Load() != 1 {
		t.Fatalf("onWait ran %d times, want 1", waited.Load())
	}
	// The leader must still be alive and complete untouched.
	close(block)
	if err := <-leaderRes; err != nil {
		t.Fatal(err)
	}
}

// TestFlightLeaderCancelRetries: a follower handed a leader's cancellation
// does not inherit the 499 — it contends for a fresh flight and executes.
func TestFlightLeaderCancelRetries(t *testing.T) {
	g := newFlightGroup()
	registered := make(chan struct{})
	var regOnce sync.Once
	g.barrier = func(string) { regOnce.Do(func() { close(registered) }) }
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	go func() {
		_, _, _ = g.do(leaderCtx, "k", func() ([]byte, error) {
			<-leaderCtx.Done()
			return nil, retainedChargeError{leaderCtx.Err()}
		}, nil)
	}()
	<-registered
	got := make(chan struct {
		payload []byte
		led     bool
		err     error
	}, 1)
	go func() {
		payload, led, err := g.do(context.Background(), "k", func() ([]byte, error) {
			return []byte("fresh"), nil
		}, nil)
		got <- struct {
			payload []byte
			led     bool
			err     error
		}{payload, led, err}
	}()
	waitFor(t, "follower to park", func() bool { return g.waiting("k") == 1 })
	cancelLeader()
	res := <-got
	if res.err != nil || !res.led || string(res.payload) != "fresh" {
		t.Fatalf("retrying follower got (%q, led=%v, %v), want to lead a fresh flight", res.payload, res.led, res.err)
	}
}

// releaseEndpoints lists every release-shaped endpoint with the request
// fields it needs beyond a dataset-backed release body; tests of the
// shared pipeline take the endpoint as one more table input.
var releaseEndpoints = []struct {
	path string
	over map[string]any
}{
	{"/v1/release", map[string]any{}},
	{"/v1/synthetic", map[string]any{"synthetic_seed": 11}},
	{"/v1/cube", map[string]any{"max_order": 2}},
}

// TestCoalescedHerdChargesOnce is the acceptance criterion end to end: N
// concurrent identical cold dataset-backed requests produce one pipeline
// execution, one ledger charge, and N byte-identical payloads; the other
// N−1 count as coalesced in /v1/metrics — on every release-shaped
// endpoint.
func TestCoalescedHerdChargesOnce(t *testing.T) {
	for _, ep := range releaseEndpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			testCoalescedHerd(t, ep.path, ep.over)
		})
	}
}

func testCoalescedHerd(t *testing.T, path string, over map[string]any) {
	const n = 6
	s := newTestServer(t, testConfig())
	if rec := putDataset(t, s, "d1", testNDJSON(t)); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	var (
		keyCh   = make(chan string, 1)
		proceed = make(chan struct{})
		regOnce sync.Once
	)
	s.flights.barrier = func(key string) {
		regOnce.Do(func() { keyCh <- key })
		<-proceed
	}
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(t, s, path, datasetBody("d1", over))
		}(i)
	}
	key := <-keyCh
	// Every follower must be parked on the leader's flight before it runs:
	// the herd is fully assembled, no request can sneak a second execution.
	waitFor(t, "herd to assemble", func() bool { return s.flights.waiting(key) == n-1 })
	close(proceed)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d payload differs from request 0", i)
		}
	}
	if l := s.Ledger(); l.Count() != 1 {
		t.Fatalf("herd of %d charged the ledger %d times, want 1", n, l.Count())
	}
	if got := s.coalesced.Value(); got != n-1 {
		t.Fatalf("coalesced counter = %d, want %d", got, n-1)
	}
	m := decode[metricsResponse](t, do(t, s, http.MethodGet, "/v1/metrics"))
	if m.Coalesced != n-1 {
		t.Fatalf("metrics coalesced_requests = %d, want %d", m.Coalesced, n-1)
	}
	// The herd settled into one cached payload: a straggler is a plain hit.
	if rec := post(t, s, path, datasetBody("d1", over)); rec.Code != http.StatusOK ||
		!bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
		t.Fatalf("straggler after the herd: %d", rec.Code)
	}
	if l := s.Ledger(); l.Count() != 1 {
		t.Fatal("straggler recharged the ledger")
	}
}

// TestFailFlightChargeFraming: the retained-charge contract is the
// leader's alone — a follower inheriting a leader-side failure reports the
// bare error, because its own budget was never touched.
func TestFailFlightChargeFraming(t *testing.T) {
	s := newTestServer(t, testConfig())
	req := &releaseRequest{Epsilon: 1}
	wrapped := retainedChargeError{errors.New("engine fault")}

	lead := httptest.NewRecorder()
	s.failFlight(lead, httptest.NewRequest(http.MethodPost, "/v1/release", nil), wrapped, req, true)
	if lead.Code != http.StatusInternalServerError || !strings.Contains(lead.Body.String(), "retained") {
		t.Fatalf("leader failure: %d %s, want 500 with the retained-charge contract", lead.Code, lead.Body.String())
	}

	follow := httptest.NewRecorder()
	s.failFlight(follow, httptest.NewRequest(http.MethodPost, "/v1/release", nil), wrapped, req, false)
	if follow.Code != http.StatusInternalServerError || strings.Contains(follow.Body.String(), "retained") {
		t.Fatalf("follower failure: %d %s, want 500 withOUT the retained-charge framing", follow.Code, follow.Body.String())
	}

	// Cancellations keep their 499 through the wrapper.
	if got := statusCode(retainedChargeError{context.Canceled}); got != statusClientClosedRequest {
		t.Fatalf("wrapped cancellation mapped to %d, want %d", got, statusClientClosedRequest)
	}
}
