// Command dpload load-tests a live dpcubed daemon: it uploads its own
// synthetic NDJSON dataset, then drives a mixed release/cube/synthetic
// workload at a target request rate — a configurable fraction of requests
// repeat one identical "hot" request (exercising the result cache's free
// replay path) while the rest are unique seeded releases that each charge
// the budget — optionally rotating across several API keys.
//
// The run's outcome is written as JSON (default BENCH_dpload.json):
// latency percentiles (p50/p95/p99), a log-bucketed latency histogram
// (same buckets the daemon exports to Prometheus, so client-observed and
// server-observed distributions line up), achieved RPS, error counts by
// status, the server-reported per-stage latency summary (where request
// time went inside the engine), and the result-cache hit rate over the
// run (read from /v1/metrics before and after), plus the number of requests
// coalesced onto another identical request's in-flight execution. With
// -cold-plans every request becomes a unique cluster-strategy release over an
// explicit workload, so each one pays a cold Step-1 planning search and the
// report's plan_ms quantiles isolate planner latency. With -benchmem the report additionally
// embeds ns/op, B/op and allocs/op parsed from a companion
// `go test -bench ... -benchmem` output file, and -compare checks those
// allocs/op against a previous report, exiting non-zero on a regression —
// the CI guard against re-introducing allocations on the hot paths.
//
// Usage:
//
//	dpcubed -addr :8080 -epsilon-cap 1e9 &
//	go test -run XXX -bench 'WHT|Perturb|Consist|ServerRelease' \
//	    -benchmem ./... > bench.txt
//	dpload -server http://localhost:8080 -rps 200 -duration 10s \
//	    -hot 0.8 -benchmem bench.txt -out BENCH_dpload.json
//	dpload -server http://localhost:8080 -compare BENCH_dpload.json ...
//
// The generated dataset is deterministic (fixed internal seed), so two
// runs against fresh daemons issue byte-identical request streams.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

func main() {
	var (
		serverURL = flag.String("server", "http://localhost:8080", "base URL of the dpcubed daemon")
		rps       = flag.Float64("rps", 100, "target request rate")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		conns     = flag.Int("conns", 8, "concurrent request workers")
		hot       = flag.Float64("hot", 0.8, "fraction of requests repeating the identical hot request (result-cache replay path); the rest are unique seeded releases")
		mix       = flag.String("mix", "release=8,cube=1,synthetic=1", "endpoint weights as name=weight, comma-separated")
		keysCSV   = flag.String("keys", "", "comma-separated API keys to rotate through (empty = unauthenticated)")
		datasetID = flag.String("dataset", "dpload", "dataset id to upload and release against")
		rows      = flag.Int("rows", 4096, "rows in the generated dataset")
		attrs     = flag.Int("attrs", 8, "binary attributes in the generated schema")
		epsilon   = flag.Float64("epsilon", 0.01, "per-request ε")
		coldPlans = flag.Bool("cold-plans", false, "make every request a unique cluster-strategy release with an explicit workload, forcing a cold Step-1 planning pass per request (overrides -mix to release-only; combine with -hot 0)")
		out       = flag.String("out", "BENCH_dpload.json", "report output path")
		benchmem  = flag.String("benchmem", "", "companion `go test -bench -benchmem` output file to embed as allocs/op metrics")
		compare   = flag.String("compare", "", "previous report to compare allocs/op against; exits 1 on a regression, a -cpu mismatch or a baseline benchmark missing from the run")
		slack     = flag.Float64("alloc-slack", 0.05, "tolerated fractional allocs/op increase before -compare fails")
		maxErrs   = flag.Float64("max-error-rate", 1.0, "error-rate threshold above which dpload exits 1 (1.0 = never)")
	)
	flag.Parse()

	rep := &report{
		GeneratedUnix: time.Now().Unix(),
		Server:        *serverURL,
		Config: runConfig{
			TargetRPS: *rps, DurationS: duration.Seconds(), Conns: *conns,
			HotRatio: *hot, Mix: *mix, Keys: len(splitCSV(*keysCSV)),
			DatasetRows: *rows, Attrs: *attrs, Epsilon: *epsilon,
			ColdPlans: *coldPlans,
		},
	}
	if *benchmem != "" {
		bm, cpu, err := parseBenchmem(*benchmem)
		if err != nil {
			fatal(err)
		}
		rep.Benchmem, rep.Config.CPU = bm, cpu
	}

	if *rps > 0 && *duration > 0 {
		if err := runLoad(rep, loadOptions{
			server: strings.TrimRight(*serverURL, "/"), rps: *rps, duration: *duration,
			conns: *conns, hot: *hot, mix: *mix, keys: splitCSV(*keysCSV),
			dataset: *datasetID, rows: *rows, attrs: *attrs, epsilon: *epsilon,
			cold: *coldPlans,
		}); err != nil {
			fatal(err)
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dpload: wrote %s\n", *out)

	code := 0
	if *compare != "" {
		if regressions := compareAllocs(*compare, rep, *slack); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "dpload: ALLOC REGRESSION:", r)
			}
			code = 1
		} else {
			fmt.Fprintln(os.Stderr, "dpload: allocs/op within baseline")
		}
	}
	if rep.Requests.Total > 0 {
		rate := float64(rep.Requests.Errors) / float64(rep.Requests.Total)
		if rate > *maxErrs {
			fmt.Fprintf(os.Stderr, "dpload: error rate %.2f%% above threshold %.2f%%\n", rate*100, *maxErrs*100)
			code = 1
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpload:", err)
	os.Exit(2)
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Report shape (BENCH_dpload.json).

type report struct {
	GeneratedUnix int64        `json:"generated_unix"`
	Server        string       `json:"server"`
	Config        runConfig    `json:"config"`
	Requests      requestStats `json:"requests"`
	LatencyMS     latencyStats `json:"latency_ms"`
	// LatencyBuckets is the client-side latency distribution over the
	// whole run, recorded into the same log-spaced buckets the daemon
	// uses (internal/telemetry.LatencyBuckets), with bucket-derived
	// quantiles alongside the exact-sorted latency_ms ones above.
	LatencyBuckets *bucketStats `json:"latency_buckets,omitempty"`
	// Stages is the server-reported per-stage latency summary
	// (/v1/metrics "stages" section) at the end of the run: where
	// request time went inside the engine (plan/allocate/measure/...).
	Stages map[string]stageLatency `json:"stages,omitempty"`
	// PlanMS is the "plan" entry of Stages pulled out on its own — the
	// planner-acceleration tracking number a -cold-plans run exists to
	// produce (every request forces a cold Step-1 search, so these
	// quantiles are pure planning latency).
	PlanMS      *stageLatency `json:"plan_ms,omitempty"`
	AchievedRPS float64       `json:"achieved_rps"`
	Cache       cacheStats    `json:"cache"`
	// Coalesced counts requests over the run that were answered by another
	// identical in-flight request's execution (single-flight coalescing;
	// delta of the daemon's coalesced_requests counter).
	Coalesced uint64               `json:"coalesced"`
	Benchmem  map[string]benchLine `json:"benchmem,omitempty"`
}

type runConfig struct {
	TargetRPS   float64 `json:"target_rps"`
	DurationS   float64 `json:"duration_s"`
	Conns       int     `json:"conns"`
	HotRatio    float64 `json:"hot_ratio"`
	Mix         string  `json:"mix"`
	Keys        int     `json:"api_keys"`
	DatasetRows int     `json:"dataset_rows"`
	Attrs       int     `json:"attrs"`
	Epsilon     float64 `json:"epsilon"`
	ColdPlans   bool    `json:"cold_plans,omitempty"`
	// CPU is the GOMAXPROCS (go test -cpu) every -benchmem input ran at:
	// allocs/op depends on it through worker-pool fan-out, so a gate is
	// only meaningful at one fixed value.
	CPU int `json:"cpu,omitempty"`
}

type requestStats struct {
	Total    int            `json:"total"`
	OK       int            `json:"ok"`
	Errors   int            `json:"errors"`
	Shed     int            `json:"shed"` // ticket dropped: workers saturated
	ByStatus map[string]int `json:"by_status"`
}

type latencyStats struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

type cacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// bucketStats is a latency histogram snapshot: per-bucket upper bounds in
// seconds, cumulative-free counts per bucket (last entry = overflow), and
// the quantiles interpolated from them.
type bucketStats struct {
	BoundsS []float64 `json:"bounds_s"`
	Counts  []uint64  `json:"counts"`
	Count   uint64    `json:"count"`
	P50MS   float64   `json:"p50_ms"`
	P95MS   float64   `json:"p95_ms"`
	P99MS   float64   `json:"p99_ms"`
	MeanMS  float64   `json:"mean_ms"`
}

func bucketsOf(h *telemetry.Histogram) *bucketStats {
	const ms = 1e3
	return &bucketStats{
		BoundsS: h.Bounds(),
		Counts:  h.BucketCounts(),
		Count:   h.Count(),
		P50MS:   h.Quantile(0.50) * ms,
		P95MS:   h.Quantile(0.95) * ms,
		P99MS:   h.Quantile(0.99) * ms,
		MeanMS:  h.Mean() * ms,
	}
}

// stageLatency mirrors the server's /v1/metrics "stages" entries.
type stageLatency struct {
	Count  uint64  `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

type benchLine struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
}

// ---------------------------------------------------------------------------
// Load generation.

type loadOptions struct {
	server   string
	rps      float64
	duration time.Duration
	conns    int
	hot      float64
	mix      string
	keys     []string
	dataset  string
	rows     int
	attrs    int
	epsilon  float64
	cold     bool
}

type endpointWeight struct {
	name   string
	weight float64
}

func parseMix(s string) ([]endpointWeight, error) {
	var out []endpointWeight
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		switch name {
		case "release", "cube", "synthetic":
		default:
			return nil, fmt.Errorf("unknown endpoint %q in mix", name)
		}
		f, err := strconv.ParseFloat(w, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad weight in mix entry %q", part)
		}
		out = append(out, endpointWeight{name, f})
		total += f
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weight", s)
	}
	for i := range out {
		out[i].weight /= total
	}
	return out, nil
}

type sample struct {
	latency time.Duration
	status  int // 0 = transport error
}

func runLoad(rep *report, o loadOptions) error {
	mix, err := parseMix(o.mix)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	auth := func(req *http.Request, i uint64) {
		if len(o.keys) > 0 {
			req.Header.Set("X-API-Key", o.keys[int(i)%len(o.keys)])
		}
	}

	// Upload the deterministic dataset (replacing any previous run's copy).
	put, err := http.NewRequest(http.MethodPut,
		o.server+"/v1/datasets/"+o.dataset, bytes.NewReader(buildNDJSON(o.rows, o.attrs)))
	if err != nil {
		return err
	}
	auth(put, 0)
	resp, err := client.Do(put)
	if err != nil {
		return fmt.Errorf("uploading dataset (is the daemon up?): %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("dataset upload: status %d", resp.StatusCode)
	}

	before, _, coalBefore, err := fetchMetrics(client, o.server, o.keys)
	if err != nil {
		return err
	}

	// Open-loop ticketing at the target rate; a full queue sheds the
	// ticket (counted) instead of silently stretching the schedule.
	tickets := make(chan uint64, o.conns*4)
	var shed atomic.Int64
	go func() {
		defer close(tickets)
		interval := time.Duration(float64(time.Second) / o.rps)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		deadline := time.After(o.duration)
		var n uint64
		for {
			select {
			case <-deadline:
				return
			case <-tick.C:
				select {
				case tickets <- n:
					n++
				default:
					shed.Add(1)
				}
			}
		}
	}()

	perWorker := make([][]sample, o.conns)
	hist := telemetry.NewHistogram(telemetry.LatencyBuckets())
	var wg sync.WaitGroup
	start := time.Now()
	for wkr := 0; wkr < o.conns; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for n := range tickets {
				path, body := buildRequest(n, mix, o)
				req, err := http.NewRequest(http.MethodPost, o.server+path, bytes.NewReader(body))
				if err != nil {
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				auth(req, n)
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(t0)
				hist.Observe(lat.Seconds())
				s := sample{latency: lat}
				if err == nil {
					s.status = resp.StatusCode
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				perWorker[wkr] = append(perWorker[wkr], s)
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, stages, coalAfter, err := fetchMetrics(client, o.server, o.keys)
	if err != nil {
		return err
	}

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	rep.Requests = summarize(all)
	rep.Requests.Shed = int(shed.Load())
	rep.LatencyMS = percentiles(all)
	rep.LatencyBuckets = bucketsOf(hist)
	rep.Stages = stages
	if plan, ok := stages["plan"]; ok {
		rep.PlanMS = &plan
	}
	rep.Coalesced = coalAfter - coalBefore
	if elapsed > 0 {
		rep.AchievedRPS = float64(len(all)) / elapsed.Seconds()
	}
	dh, dm := after.Hits-before.Hits, after.Misses-before.Misses
	rep.Cache = cacheStats{Hits: dh, Misses: dm}
	if dh+dm > 0 {
		rep.Cache.HitRate = float64(dh) / float64(dh+dm)
	}
	return nil
}

// buildRequest derives request n's endpoint, heat and body deterministically
// from its ticket number, so a repeated run replays the same stream.
func buildRequest(n uint64, mix []endpointWeight, o loadOptions) (string, []byte) {
	if o.cold {
		return coldPlanRequest(n, o)
	}
	rng := rand.New(rand.NewSource(int64(n)*2654435761 + 12345))
	endpoint := mix[len(mix)-1].name
	u := rng.Float64()
	for _, ew := range mix {
		if u < ew.weight {
			endpoint = ew.name
			break
		}
		u -= ew.weight
	}
	seed := int64(1) // the hot request: one fixed seed per endpoint
	if rng.Float64() >= o.hot {
		seed = int64(n) + 2 // unique: recomputes and charges
	}
	body := map[string]any{
		"dataset_id": o.dataset,
		"workload":   map[string]any{"k": 2},
		"epsilon":    o.epsilon,
		"seed":       seed,
	}
	switch endpoint {
	case "cube":
		delete(body, "workload")
		body["max_order"] = 2
	case "synthetic":
		body["synthetic_seed"] = seed
	}
	raw, _ := json.Marshal(body)
	return "/v1/" + endpoint, raw
}

// coldPlanRequest builds request n for -cold-plans mode: a cluster-strategy
// release over an explicit-marginals workload that varies with n, so every
// request misses the plan cache and pays a full Step-1 greedy-clustering
// search — the regime where the "plan" stage quantiles measure planner
// latency and nothing else. The workload is all singletons (rotated by n, so
// even order-sensitive cache keys vary) plus one pair whose indices walk the
// attribute set; the seed is always unique so the result cache never
// short-circuits the pipeline either.
func coldPlanRequest(n uint64, o loadOptions) (string, []byte) {
	a := o.attrs
	marginals := make([][]int, 0, a+1)
	rot := int(n % uint64(a))
	for s := 0; s < a; s++ {
		marginals = append(marginals, []int{(s + rot) % a})
	}
	if a >= 2 {
		i := int(n % uint64(a))
		j := (i + 1 + int(n/uint64(a))%(a-1)) % a // 1..a-1 offset: never equal to i
		marginals = append(marginals, []int{i, j})
	}
	body := map[string]any{
		"dataset_id": o.dataset,
		"workload":   map[string]any{"marginals": marginals},
		"strategy":   "cluster",
		"epsilon":    o.epsilon,
		"seed":       int64(n) + 2,
	}
	raw, _ := json.Marshal(body)
	return "/v1/release", raw
}

// buildNDJSON renders the deterministic load dataset: attrs binary
// attributes, rows rows, fixed seed.
func buildNDJSON(rows, attrs int) []byte {
	var b bytes.Buffer
	type attr struct {
		Name        string `json:"name"`
		Cardinality int    `json:"cardinality"`
	}
	schema := make([]attr, attrs)
	for i := range schema {
		schema[i] = attr{Name: fmt.Sprintf("a%d", i), Cardinality: 2}
	}
	hdr, _ := json.Marshal(map[string]any{"schema": schema})
	b.Write(hdr)
	b.WriteByte('\n')
	rng := rand.New(rand.NewSource(42))
	row := make([]int, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			row[i] = rng.Intn(2)
		}
		raw, _ := json.Marshal(row)
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// fetchMetrics reads /v1/metrics, returning the result-cache counters and
// the per-stage latency summaries (empty until the daemon has run a
// release; the stage quantiles are over the daemon's lifetime, so run
// dpload against a fresh daemon when the run itself should dominate them).
func fetchMetrics(client *http.Client, server string, keys []string) (cacheStats, map[string]stageLatency, uint64, error) {
	req, err := http.NewRequest(http.MethodGet, server+"/v1/metrics", nil)
	if err != nil {
		return cacheStats{}, nil, 0, err
	}
	if len(keys) > 0 {
		req.Header.Set("X-API-Key", keys[0])
	}
	resp, err := client.Do(req)
	if err != nil {
		return cacheStats{}, nil, 0, fmt.Errorf("reading /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	var m struct {
		ResultCache *struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"result_cache"`
		Stages    map[string]stageLatency `json:"stages"`
		Coalesced uint64                  `json:"coalesced_requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return cacheStats{}, nil, 0, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	stages := make(map[string]stageLatency, len(m.Stages))
	for name, sl := range m.Stages {
		if sl.Count > 0 {
			stages[name] = sl
		}
	}
	if m.ResultCache == nil {
		return cacheStats{}, stages, m.Coalesced, nil // cache disabled server-side
	}
	return cacheStats{Hits: m.ResultCache.Hits, Misses: m.ResultCache.Misses}, stages, m.Coalesced, nil
}

func summarize(all []sample) requestStats {
	st := requestStats{Total: len(all), ByStatus: map[string]int{}}
	for _, s := range all {
		switch {
		case s.status == 0:
			st.Errors++
			st.ByStatus["transport"]++
		case s.status >= 200 && s.status < 300:
			st.OK++
			st.ByStatus[strconv.Itoa(s.status)]++
		default:
			st.Errors++
			st.ByStatus[strconv.Itoa(s.status)]++
		}
	}
	return st
}

func percentiles(all []sample) latencyStats {
	if len(all) == 0 {
		return latencyStats{}
	}
	lats := make([]float64, len(all))
	sum := 0.0
	for i, s := range all {
		lats[i] = float64(s.latency) / float64(time.Millisecond)
		sum += lats[i]
	}
	sort.Float64s(lats)
	at := func(q float64) float64 { return lats[int(q*float64(len(lats)-1))] }
	return latencyStats{
		P50: at(0.50), P95: at(0.95), P99: at(0.99),
		Max: lats[len(lats)-1], Mean: sum / float64(len(lats)),
	}
}

// ---------------------------------------------------------------------------
// Benchmem parsing and comparison.

// parseBenchmem reads standard `go test -bench -benchmem` output:
//
//	BenchmarkWHTKernel1M/blocked-8  170  7031082 ns/op  2 B/op  0 allocs/op
//
// keyed by benchmark name with the -GOMAXPROCS suffix stripped. The
// stripped suffix (absent means 1) is returned as cpu; inputs that mix
// GOMAXPROCS values are an error, since their allocs/op do not compare.
func parseBenchmem(path string) (map[string]benchLine, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := map[string]benchLine{}
	cpu := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, n := fields[0], 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if v, err := strconv.Atoi(name[i+1:]); err == nil {
				name, n = name[:i], v
			}
		}
		if cpu != 0 && n != cpu {
			return nil, 0, fmt.Errorf("%s: benchmarks ran at mixed GOMAXPROCS (-%d and -%d); run them all with one go test -cpu value", path, cpu, n)
		}
		cpu = n
		var bl benchLine
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				bl.NsOp = v
			case "B/op":
				bl.BOp = v
			case "allocs/op":
				bl.AllocsOp = v
			}
		}
		if bl.NsOp > 0 {
			out[name] = bl
		}
	}
	return out, cpu, sc.Err()
}

// compareAllocs checks the current report's allocs/op against a baseline
// report file, returning one message per regression past the slack. A
// baseline taken at another GOMAXPROCS, and a baseline benchmark the run
// did not produce, are failures too: allocs/op at another -cpu do not
// compare, and a missing name (a -cpu suffix that moved a sub-benchmark
// such as workers=N, or a rename) would otherwise leave that benchmark
// silently ungated. A removed or renamed benchmark needs a regenerated
// baseline.
func compareAllocs(baselinePath string, cur *report, slack float64) []string {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return []string{fmt.Sprintf("reading baseline %s: %v", baselinePath, err)}
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return []string{fmt.Sprintf("parsing baseline %s: %v", baselinePath, err)}
	}
	if base.Config.CPU != cur.Config.CPU {
		return []string{fmt.Sprintf("baseline %s ran at -cpu %d, this run at -cpu %d: regenerate the baseline at the run's -cpu",
			baselinePath, base.Config.CPU, cur.Config.CPU)}
	}
	var regressions []string
	for name, b := range base.Benchmem {
		c, ok := cur.Benchmem[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf(
				"%s: in the baseline but not in this run", name))
			continue
		}
		if c.AllocsOp > b.AllocsOp*(1+slack)+0.5 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f allocs/op, baseline %.0f", name, c.AllocsOp, b.AllocsOp))
		}
	}
	sort.Strings(regressions)
	return regressions
}
