package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Server sizing. The caps are far above what any run spends: a refused
// request would be a failure, and the workloads are chosen so none fails.
const (
	epsilonCap = 1 << 30
	deltaCap   = 0.5
)

// instance is one in-process dpcubed server behind a loopback listener,
// plus the keep-alive client that drives it.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	spans  *serverSpans // records ServeHTTP time per request id while on
}

// serverSpans is the benchmark's wrapper around Server.ServeHTTP: while on,
// it records each request's handler time under its X-Request-Id.
type serverSpans struct {
	on  atomic.Bool
	mu  sync.Mutex
	dur map[string]time.Duration
}

func (sp *serverSpans) get(id string) (time.Duration, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	d, ok := sp.dur[id]
	return d, ok
}

func startInstance(clients int) (*instance, error) {
	srv, err := server.New(server.Config{EpsilonCap: epsilonCap, DeltaCap: deltaCap})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	spans := &serverSpans{dur: map[string]time.Duration{}}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !spans.on.Load() {
			srv.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		srv.ServeHTTP(w, r)
		d := time.Since(start)
		spans.mu.Lock()
		spans.dur[r.Header.Get("X-Request-Id")] = d
		spans.mu.Unlock()
	})
	in := &instance{
		srv:    srv,
		hs:     &http.Server{Handler: handler},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		spans:  spans,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// stop shuts the listener down and waits for the serve goroutine to end.
func (in *instance) stop() error {
	in.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, in.srv.Close())
}

// do sends one request and reads the whole response into buf.
func (in *instance) do(ctx context.Context, method, path, id string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// send issues a spec and fails on any status but the expected one.
func (in *instance) send(ctx context.Context, s spec, d *dataDef, id string, buf *bytes.Buffer) error {
	method, want := http.MethodPost, http.StatusOK
	if s.Kind == kindAppend {
		method, want = http.MethodPut, http.StatusCreated
	}
	status, err := in.do(ctx, method, s.path(), id, s.body(d), buf)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, s.path(), err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, s.path(), status, truncate(buf.Bytes()))
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}

// getJSON fetches a GET endpoint into v.
func (in *instance) getJSON(ctx context.Context, path string, v any) error {
	var buf bytes.Buffer
	status, err := in.do(ctx, http.MethodGet, path, "meta", nil, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// serverCounters is the part of /v1/metrics and /v1/budget the benchmark
// reads before and after the timed stream.
type serverCounters struct {
	ResultHits, ResultMisses uint64
	PlanHits, PlanMisses     uint64
	Coalesced                uint64
	EpsilonSpent             float64
	DeltaSpent               float64
	Releases                 int
}

func (a serverCounters) minus(b serverCounters) serverCounters {
	return serverCounters{
		ResultHits:   a.ResultHits - b.ResultHits,
		ResultMisses: a.ResultMisses - b.ResultMisses,
		PlanHits:     a.PlanHits - b.PlanHits,
		PlanMisses:   a.PlanMisses - b.PlanMisses,
		Coalesced:    a.Coalesced - b.Coalesced,
		EpsilonSpent: a.EpsilonSpent - b.EpsilonSpent,
		DeltaSpent:   a.DeltaSpent - b.DeltaSpent,
		Releases:     a.Releases - b.Releases,
	}
}

func (in *instance) counters(ctx context.Context) (serverCounters, error) {
	var m struct {
		PlanCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"plan_cache"`
		ResultCache *struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"result_cache"`
		Coalesced uint64 `json:"coalesced_requests"`
		Budget    struct {
			EpsilonSpent float64 `json:"epsilon_spent"`
			DeltaSpent   float64 `json:"delta_spent"`
			Releases     int     `json:"releases"`
		} `json:"budget"`
	}
	if err := in.getJSON(ctx, "/v1/metrics", &m); err != nil {
		return serverCounters{}, err
	}
	if m.ResultCache == nil {
		return serverCounters{}, errors.New("/v1/metrics has no result_cache section")
	}
	return serverCounters{
		ResultHits: m.ResultCache.Hits, ResultMisses: m.ResultCache.Misses,
		PlanHits: m.PlanCache.Hits, PlanMisses: m.PlanCache.Misses,
		Coalesced:    m.Coalesced,
		EpsilonSpent: m.Budget.EpsilonSpent, DeltaSpent: m.Budget.DeltaSpent,
		Releases: m.Budget.Releases,
	}, nil
}

// setup is one set-up of a workload: a fresh server, the generated rows
// ingested over PUT, and the warm-up requests sent serially.
type setup struct {
	in       *instance
	rows     [][]int // the generated rows, from which every expected answer is computed
	warm     []spec
	warmBody [][]byte // warm-up response bodies, in warm order
	seconds  float64  // generate + ingest + warm-up
	ingest   time.Duration
	base     serverCounters // counters once set-up is over
}

func runSetup(ctx context.Context, w *workload, seed int64, traced bool) (*setup, error) {
	in, err := startInstance(w.clients)
	if err != nil {
		return nil, err
	}
	in.spans.on.Store(traced)
	st := &setup{in: in}
	start := time.Now()
	tab := w.data.gen(seed, w.data.tuples)
	body := encodeNDJSON(tab)
	var buf bytes.Buffer
	t0 := time.Now()
	status, err := in.do(ctx, http.MethodPut, "/v1/datasets/"+datasetID, "ingest", body, &buf)
	st.ingest = time.Since(t0)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("PUT dataset: status %d: %s", status, truncate(buf.Bytes()))
	}
	if err != nil {
		return nil, errors.Join(err, in.stop())
	}
	st.rows = tab.Rows
	st.warm = w.warm(seed)
	for i, s := range st.warm {
		if err := in.send(ctx, s, w.data, "w"+strconv.Itoa(i), &buf); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), in.stop())
		}
		st.warmBody = append(st.warmBody, bytes.Clone(buf.Bytes()))
	}
	st.seconds = time.Since(start).Seconds()
	if st.base, err = in.counters(ctx); err != nil {
		return nil, errors.Join(err, in.stop())
	}
	return st, nil
}

// sample is one timed request as the client saw it, kept compact: the
// benchmark's own memory counts in the process's peak RSS.
type sample struct {
	slot, size int32
	start, end time.Duration // since the stream began
	ok         bool
}

// sampleChunk bounds the client's sample storage growth to whole chunks,
// so recording never copies what it already holds.
const sampleChunk = 4096

// result is a sample joined with the request it timed.
type result struct {
	sample
	spec spec
}

func (r result) latency() time.Duration { return r.end - r.start }

// dispatcher hands out stream slots in order. An append slot is a barrier:
// it waits until every in-flight request has returned and holds back later
// slots until it has itself returned, so each release runs against a data
// version fixed by its slot.
type dispatcher struct {
	mu       sync.Mutex
	cond     *sync.Cond
	next     int
	inflight int
	barrier  bool
	deadline time.Time
	gen      func(i int) spec
}

func newDispatcher(deadline time.Time, gen func(int) spec) *dispatcher {
	d := &dispatcher{deadline: deadline, gen: gen}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *dispatcher) acquire() (int, spec, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.barrier {
		d.cond.Wait()
	}
	if !time.Now().Before(d.deadline) {
		return 0, spec{}, false
	}
	i := d.next
	d.next++
	s := d.gen(i)
	if s.Kind == kindAppend {
		d.barrier = true
		for d.inflight > 0 {
			d.cond.Wait()
		}
	}
	d.inflight++
	return i, s, true
}

func (d *dispatcher) done(s spec) {
	d.mu.Lock()
	d.inflight--
	if s.Kind == kindAppend {
		d.barrier = false
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// stream is the outcome of one timed closed-loop stream.
type stream struct {
	results []result       // indexed by slot
	kept    map[int][]byte // retained bodies by slot
	errs    []error        // the first few failures, for the report
	elapsed time.Duration
	peakRSS float64          // VmHWM in MiB when the last request returned
	runtime [2]runtimeSample // process counters when the stream began and ended
	steal   []stealSample    // the machine's CPU counters every stealEvery
}

// stealEvery is how often the stream samples the machine's steal counter.
const stealEvery = 50 * time.Millisecond

// runStream drives the instance with w.clients closed-loop clients for the
// given duration. Request ids are "s<slot>", so the server wrapper can
// join its spans to the client's.
func runStream(ctx context.Context, in *instance, w *workload, d *dataDef, gen func(int) spec, dur time.Duration, chk *checker) (*stream, error) {
	out := &stream{kept: map[int][]byte{}}
	out.runtime[0] = readRuntime()
	start := time.Now()
	disp := newDispatcher(start.Add(dur), gen)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	stop, sampled := make(chan struct{}), make(chan []stealSample)
	go func() {
		var out []stealSample
		take := func() {
			if s, err := readSteal(time.Since(start)); err == nil {
				out = append(out, s)
			}
		}
		take()
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-stop:
				take()
				sampled <- out
				return
			}
		}
	}()
	per := make([][][]sample, w.clients)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i, s, ok := disp.acquire()
				if !ok {
					return
				}
				body := s.body(d)
				t0 := time.Since(start)
				method, want := http.MethodPost, http.StatusOK
				if s.Kind == kindAppend {
					method, want = http.MethodPut, http.StatusCreated
				}
				status, err := in.do(ctx, method, s.path(), "s"+strconv.Itoa(i), body, &buf)
				t1 := time.Since(start)
				disp.done(s)
				if err == nil && status != want {
					err = fmt.Errorf("slot %d %s: status %d: %s", i, s.Kind, status, truncate(buf.Bytes()))
				}
				if err == nil && s.Kind != kindAppend {
					err = chk.check(i, s, buf.Bytes())
				}
				if n := len(per[c]); n == 0 || len(per[c][n-1]) == sampleChunk {
					per[c] = append(per[c], make([]sample, 0, sampleChunk))
				}
				last := &per[c][len(per[c])-1]
				*last = append(*last, sample{slot: int32(i), size: int32(buf.Len()), start: t0, end: t1, ok: err == nil})
				if err != nil || (s.Kind != kindAppend && chk.keep(i)) {
					mu.Lock()
					if err != nil && len(out.errs) < 5 {
						out.errs = append(out.errs, err)
					} else if err == nil {
						out.kept[i] = bytes.Clone(buf.Bytes())
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	close(stop)
	out.steal = <-sampled
	out.runtime[1] = readRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.peakRSS = rss
	// Every slot handed out returned exactly once, so the slots are 0..n-1.
	n := 0
	for _, chunks := range per {
		for _, ch := range chunks {
			n += len(ch)
		}
	}
	out.results = make([]result, n)
	for _, chunks := range per {
		for _, ch := range chunks {
			for _, sm := range ch {
				out.results[sm.slot].sample = sm
			}
		}
	}
	// The dispatcher is done with gen, so it can be called again here.
	for i := range out.results {
		out.results[i].spec = gen(i)
	}
	return out, nil
}
