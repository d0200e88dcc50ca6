// Command dpbench is the repository's serving benchmark. It starts a
// dpcubed server in-process (server.New behind a loopback listener), ingests
// a seeded synthetic NLTCS or Adult table over PUT /v1/datasets, and drives
// the server over keep-alive connections with one of three closed-loop
// traffic mixes:
//
//	nltcs-hot    replays a 63-request working set; every timed request is
//	             a result-cache hit
//	nltcs-fresh  unique-seed releases, cubes and synthetic data over a
//	             dataset that grows by small appends; every request misses
//	adult-sweep  an ε sweep of k=2 releases and cubes over Adult's 2^23 cells
//
// Run it from the repository root:
//
//	bash dpbench/run.sh --workload nltcs-fresh --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the stream untraced and then traced, replays the traced stream's misses
// serially through the public layer functions, and reports the per-layer
// metrics. Either way it verifies the responses and exits non-zero when
// one is wrong. The last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/accountant"
	"repro/internal/marginal"
	"repro/internal/transform"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 3

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: nltcs-hot, nltcs-fresh or adult-sweep")
	seed := fs.Int64("seed", 1, "workload seed: the data and the request stream derive from it")
	seconds := fs.Int("seconds", 20, "length of the timed stream")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(stderr, "dpbench: %v\n", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# GOMAXPROCS %d nproc %d %s clients %d\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), w.clients)
	var rep *report
	if *trace == 1 {
		rep, err = b.traced(ctx)
	} else {
		rep, err = b.endToEnd(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dpbench: %v\n", err)
		return 1
	}
	for _, l := range rep.info {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "# FAIL %s\n", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := rep.notes[n]
		if t, ok := layerTargets[n]; ok {
			note = strings.TrimSpace(note + " [moves " + t + "]")
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %-6s %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit, note)
	}
	rep.Correct = len(rep.problems) == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "dpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the result line, plus notes and failures printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    map[string]string
	info     []string // printed as comment lines above the metrics
	problems []string
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type bench struct {
	w    *workload
	seed int64
	dur  time.Duration
}

// setups sets the workload up setupReps times and keeps the last set-up
// running; the earlier servers are stopped and their memory returned.
func (b *bench) setups(ctx context.Context) (*setup, []float64, []float64, error) {
	var secs, rates []float64
	for i := 0; ; i++ {
		st, err := runSetup(ctx, b.w, b.seed, false)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, st.seconds)
		rates = append(rates, float64(b.w.data.tuples)/st.ingest.Seconds())
		if i == setupReps-1 {
			return st, secs, rates, nil
		}
		if err := st.in.stop(); err != nil {
			return nil, nil, nil, err
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
}

// outcome is one verified timed stream.
type outcome struct {
	st       *setup
	s        *stream
	delta    serverCounters // counters over the stream
	after    serverCounters
	metric   accuracy // over the fixed accuracy sample
	all      accuracy // over every verified response
	rep      *replayer
	replayed map[string]time.Duration // replayed layer time by request id
	okCount  int
	releases int // release-shaped requests sent
}

// timedRun runs the stream on a set-up instance and checks every output.
func (b *bench) timedRun(ctx context.Context, st *setup, dur time.Duration, rep *report) (*outcome, error) {
	w, d := b.w, b.w.data
	// The warm-up covers every request shape of its workload's stream.
	tables, err := tableCounts(d.schema, st.warm)
	if err != nil {
		return nil, err
	}
	chk := &checker{w: w, tables: tables}
	if w.hot {
		chk.hits = map[spec][]byte{}
		for i, s := range st.warm {
			body, err := stripBudget(st.warmBody[i])
			if err != nil {
				return nil, err
			}
			chk.hits[s] = body
		}
	}
	o := &outcome{st: st, replayed: map[string]time.Duration{}}
	if o.s, err = runStream(ctx, st.in, w, d, w.stream(b.seed, st.warm), dur, chk); err != nil {
		return nil, err
	}
	for _, e := range o.s.errs {
		rep.fail("%v", e)
	}
	for _, r := range o.s.results {
		if r.ok {
			o.okCount++
		}
		if r.spec.Kind != kindAppend {
			o.releases++
		}
	}
	if o.after, err = st.in.counters(ctx); err != nil {
		return nil, err
	}
	o.delta = o.after.minus(st.base)
	b.checkLedger(o, rep)
	if err := b.verify(ctx, o, rep); err != nil {
		return nil, err
	}
	return o, nil
}

// checkLedger is the ledger-exactness gate: the global spend over the
// stream equals the sum of ε (and δ) over the admitted misses, exactly.
// Every ε and δ sent is dyadic, so the sums are exact in any order.
func (b *bench) checkLedger(o *outcome, rep *report) {
	var eps, del float64
	misses := 0
	for _, r := range o.s.results {
		if !b.w.hot && r.ok && r.spec.Kind != kindAppend {
			eps += r.spec.Epsilon
			del += r.spec.Delta
			misses++
		}
	}
	if b.w.hot {
		if o.delta.ResultHits != uint64(o.releases) || o.delta.ResultMisses != 0 {
			rep.fail("result cache: %d hits and %d misses over %d replayed requests, want all hits",
				o.delta.ResultHits, o.delta.ResultMisses, o.releases)
		}
	} else if o.delta.ResultMisses != uint64(o.releases) || o.delta.ResultHits != 0 {
		rep.fail("result cache: %d hits and %d misses over %d unique requests, want all misses",
			o.delta.ResultHits, o.delta.ResultMisses, o.releases)
	}
	if o.delta.EpsilonSpent != eps || o.delta.DeltaSpent != del || o.delta.Releases != misses {
		rep.fail("ledger: spent ε=%v δ=%v over %d charges during the stream, admitted misses sum to ε=%v δ=%v over %d",
			o.delta.EpsilonSpent, o.delta.DeltaSpent, o.delta.Releases, eps, del, misses)
	}
}

// verify replays the kept misses (the warm-up set of a hot workload)
// serially and checks each response in full.
func (b *bench) verify(ctx context.Context, o *outcome, rep *report) error {
	w, d := b.w, b.w.data
	r, err := newReplayer(d.schema, o.st.rows)
	if err != nil {
		return err
	}
	o.rep = r
	if err := r.warmPlans(ctx, o.st.warm); err != nil {
		return err
	}
	if w.hot {
		for i, s := range o.st.warm {
			dur, err := r.verifyResponse(ctx, s, o.st.warmBody[i], &o.metric, &o.all)
			if err != nil {
				rep.fail("warm-up %d: %v", i, err)
				continue
			}
			o.replayed["w"+strconv.Itoa(i)] = dur
		}
	} else {
		gen := w.stream(b.seed, o.st.warm)
		next := 0 // first slot whose append is not yet folded into the replay data
		for _, slot := range sortedSlots(o.s.kept) {
			for ; next < slot; next++ {
				if s := gen(next); s.Kind == kindAppend {
					if err := r.add(d.gen(s.Seed, s.Rows).Rows); err != nil {
						return err
					}
				}
			}
			s := gen(slot)
			accs := []*accuracy{&o.all}
			if slot < w.prefix {
				accs = append(accs, &o.metric)
			}
			dur, err := r.verifyResponse(ctx, s, o.s.kept[slot], accs...)
			if err != nil {
				rep.fail("slot %d: %v", slot, err)
				continue
			}
			o.replayed["s"+strconv.Itoa(slot)] = dur
		}
		if n := w.prefix; len(o.s.results) < n {
			rep.fail("the stream completed %d requests, fewer than the %d-slot accuracy sample", len(o.s.results), n)
		}
	}
	if o.all.releases == 0 {
		rep.fail("no release or cube response was verified")
		return nil
	}
	if ratio, bound := o.all.varianceRatio(), o.all.varianceBound(); !(ratio <= bound) {
		rep.fail("realized squared error is %.3f× the reported variance over %d responses, above the bound %.3f",
			ratio, o.all.releases, bound)
	}
	return nil
}

// checker inspects each response of a stream as it arrives; keep reports
// whether the body must be retained for full verification afterwards.
type checker struct {
	w      *workload
	tables map[string]int
	hits   map[spec][]byte // hot: the warm-up body each hit must reproduce
}

func (c *checker) check(slot int, s spec, body []byte) error {
	if err := quickShape(s, body, c.tables); err != nil {
		return fmt.Errorf("slot %d: %w", slot, err)
	}
	if c.hits == nil {
		return nil
	}
	got, err := stripBudget(body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, c.hits[s]) {
		return fmt.Errorf("slot %d %s: cache hit body differs from the miss that produced it", slot, s.structKey())
	}
	return nil
}

func (c *checker) keep(slot int) bool {
	if slot < c.w.prefix {
		return true
	}
	k := slot - c.w.prefix
	return k%c.w.stride == 0 && k/c.w.stride < c.w.extra
}

// latencies returns the client round trips of the requests, in
// milliseconds. A failed request counts as beyond every percentile.
func latencies(results []result) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		if r.ok {
			out = append(out, ms(r.latency()))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// maxSteal is the share of CPU time the host may take from the machine's
// virtual CPUs during a block for the block to count as undisturbed. On a
// shared host the hypervisor deschedules virtual CPUs in bursts, and a
// block it hit measures the neighbours rather than the program.
const maxSteal = 0.02

// blockStat summarises one run of consecutive slots.
type blockStat struct {
	rps, quantile, steal float64
}

// blockStats splits the stream into consecutive blocks of block slots,
// complete blocks only, and returns each block's throughput (successful
// requests over the block's span), q-quantile latency and stolen share.
func blockStats(s *stream, block int, q float64) []blockStat {
	var out []blockStat
	for lo := 0; lo+block <= len(s.results); lo += block {
		part := s.results[lo : lo+block]
		first, last := part[0].start, part[0].end
		ok := 0
		for _, r := range part {
			first, last = min(first, r.start), max(last, r.end)
			if r.ok {
				ok++
			}
		}
		out = append(out, blockStat{
			rps:      float64(ok) / (last - first).Seconds(),
			quantile: quantile(latencies(part), q),
			steal:    stolen(s.steal, first, last),
		})
	}
	return out
}

// unstolen keeps the blocks the host disturbed least: those with at most
// maxSteal of their CPU time stolen, or, when the host stole more from at
// least half the blocks, the half it stole least from. The note says which.
func unstolen(bs []blockStat) ([]blockStat, string) {
	limit := max(maxSteal, median(field(bs, func(b blockStat) float64 { return b.steal })))
	var keep []blockStat
	for _, b := range bs {
		if b.steal <= limit {
			keep = append(keep, b)
		}
	}
	return keep, fmt.Sprintf("%d of %d blocks with steal <= %.3f", len(keep), len(bs), limit)
}

func field(bs []blockStat, f func(blockStat) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}

// tailStat returns the q-quantile of latency. Samples are grouped into
// runs of whole blocks, each group the fewest blocks that leave minBeyond
// samples beyond the quantile; with at least five groups the result is the
// median of the groups' quantiles over the groups unstolen keeps,
// otherwise the quantile of the whole stream. The note is empty when even
// the whole stream leaves fewer than minBeyond samples beyond.
func tailStat(s *stream, block int, q float64) (float64, string) {
	group := block
	for beyond(group, q) < minBeyond {
		group += block
	}
	if len(s.results) >= 5*group {
		gs, which := unstolen(blockStats(s, group, q))
		return median(field(gs, func(b blockStat) float64 { return b.quantile })),
			fmt.Sprintf("p%g: median over %s of %d requests, %d beyond in each", 100*q, which, group, beyond(group, q))
	}
	n := len(s.results)
	if beyond(n, q) < minBeyond {
		return 0, ""
	}
	// Too few groups: leave out the requests the host disturbed most, by
	// the same rule as unstolen, when enough samples remain.
	steal := make([]float64, n)
	for i, r := range s.results {
		steal[i] = stolen(s.steal, r.start, r.end)
	}
	limit := max(maxSteal, median(append([]float64(nil), steal...)))
	var keep []result
	for i, r := range s.results {
		if steal[i] <= limit {
			keep = append(keep, r)
		}
	}
	if k := len(keep); beyond(k, q) >= minBeyond {
		return quantile(latencies(keep), q), fmt.Sprintf("p%g of %d of %d requests with steal <= %.3f, %d beyond", 100*q, k, n, limit, beyond(k, q))
	}
	return quantile(latencies(s.results), q), fmt.Sprintf("p%g of n=%d, %d beyond", 100*q, n, beyond(n, q))
}

// endToEnd is a --trace 0 run: the end-to-end metrics, untraced.
func (b *bench) endToEnd(ctx context.Context) (*report, error) {
	rep := newReport()
	st, secs, _, err := b.setups(ctx)
	if err != nil {
		return nil, err
	}
	o, err := b.timedRun(ctx, st, b.dur, rep)
	if err = errors.Join(err, st.in.stop()); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = len(o.s.results), len(o.s.results)-o.okCount
	n := len(o.s.results)
	byKey := map[string][]float64{}
	for _, r := range o.s.results {
		byKey[r.spec.structKey()] = append(byKey[r.spec.structKey()], ms(r.latency()))
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.info = append(rep.info, fmt.Sprintf("%-24s n=%-7d p50 %.4g ms", k, len(byKey[k]), median(byKey[k])))
	}
	all := blockStats(o.s, b.w.block, 0.5)
	if len(all) < 5 {
		rep.fail("the stream completed %d blocks of %d slots, fewer than 5", len(all), b.w.block)
	}
	bs, which := unstolen(all)
	rep.set("throughput_rps", median(field(bs, func(b blockStat) float64 { return b.rps })), "1/s",
		fmt.Sprintf("median over %s of %d slots; %d ok in %.2fs", which, b.w.block, o.okCount, o.s.elapsed.Seconds()))
	rep.set("latency_p50_ms", finite(median(field(bs, func(b blockStat) float64 { return b.quantile }))), "ms",
		fmt.Sprintf("median of block medians, n=%d", n))
	tail, note := tailStat(o.s, b.w.block, b.w.tail)
	if note == "" {
		rep.fail("%d samples leave %d beyond the p%g, fewer than %d", n, beyond(n, b.w.tail), 100*b.w.tail, minBeyond)
	}
	rep.set("latency_tail_ms", finite(tail), "ms", note)
	rep.info = append(rep.info, fmt.Sprintf("the host stole %.2f%% of CPU time during the stream",
		100*stolen(o.s.steal, 0, o.s.elapsed)))
	rep.set("success_ratio", float64(o.okCount)/float64(n), "ratio", fmt.Sprintf("1 - error_ratio, n=%d", n))
	rep.set("setup_s", median(secs), "s", fmt.Sprintf("median of %d set-ups %v", len(secs), round3(secs)))
	rep.set("peak_rss_mb", o.s.peakRSS, "MB", "VmHWM when the stream ends")
	rep.set("total_variance", o.metric.totalVar/float64(o.metric.releases), "count2",
		fmt.Sprintf("mean over %d fixed releases", o.metric.releases))
	rep.set("realized_rmse", o.metric.rmse(), "count", fmt.Sprintf("over %.0f cells", o.metric.cells))
	return rep, nil
}

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func round3(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// traced is a --trace 1 run: the stream untraced on one set-up and traced
// on a fresh set-up of the same seed, then the serial replay of the traced
// stream's misses and the layer probes.
func (b *bench) traced(ctx context.Context) (*report, error) {
	rep := newReport()
	half := b.dur / 2
	st, _, rates, err := b.setups(ctx)
	if err != nil {
		return nil, err
	}
	un, err := b.timedRun(ctx, st, half, rep)
	if err = errors.Join(err, st.in.stop()); err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()

	tst, err := runSetup(ctx, b.w, b.seed, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	o, err := b.timedRun(ctx, tst, half, rep)
	if err == nil {
		err = b.layers(ctx, o, un, rates, rep)
	}
	if err = errors.Join(err, tst.in.stop()); err != nil {
		return nil, err
	}
	rep.Attempted = len(o.s.results)
	rep.Failed = len(o.s.results) - o.okCount
	return rep, nil
}

// layers computes the per-layer metrics of a traced outcome.
func (b *bench) layers(ctx context.Context, o, un *outcome, rates []float64, rep *report) error {
	w, spans := b.w, o.st.in.spans

	var hits, misses, overhead, sizes []float64
	share := map[string]time.Duration{}
	var serveTotal time.Duration
	for _, r := range o.s.results {
		id := "s" + strconv.Itoa(int(r.slot))
		sd, ok := spans.get(id)
		if !ok {
			return fmt.Errorf("no server span for %s", id)
		}
		share[r.spec.Kind] += sd
		serveTotal += sd
		overhead = append(overhead, us(r.latency()-sd))
		sizes = append(sizes, float64(r.size)/1024)
		switch {
		case r.spec.Kind == kindAppend:
		case w.hot:
			hits = append(hits, us(sd))
		default:
			misses = append(misses, ms(sd))
		}
	}
	if w.hot {
		for i := range o.st.warm {
			sd, _ := spans.get("w" + strconv.Itoa(i))
			misses = append(misses, ms(sd))
		}
	} else {
		ph, err := b.hitProbe(ctx, o)
		if err != nil {
			return err
		}
		hits = ph
	}
	rep.set("server.hit_us", median(hits), "us", fmt.Sprintf("p50 of %d hits", len(hits)))
	rep.set("server.miss_ms", median(misses), "ms", fmt.Sprintf("p50 of %d misses", len(misses)))
	rep.set("server.resp_kb", mean(sizes), "count", "mean response KiB")
	rep.set("http.overhead_us", median(overhead), "us", "p50 of client round trip minus ServeHTTP")
	for _, k := range []string{kindRelease, kindCube, kindSynthetic, kindAppend} {
		rep.info = append(rep.info, fmt.Sprintf("%s share of ServeHTTP time %.4f", k, ratio(float64(share[k]), float64(serveTotal))))
	}

	// Misses replayed serially through the layer functions.
	var self []float64
	var replayed, served time.Duration
	for id, rd := range o.replayed {
		sd, ok := spans.get(id)
		if !ok {
			return fmt.Errorf("no server span for %s", id)
		}
		self = append(self, ms(sd-rd))
		replayed += rd
		served += sd
	}
	t := o.rep.times
	per := func(d time.Duration, n int) float64 { return ratio(ms(d), float64(n)) }
	rep.set("server.self_ms", median(self), "ms", fmt.Sprintf("p50 over %d replayed misses", len(self)))
	rep.set("trace.coverage", ratio(float64(replayed), float64(served)), "ratio", "replayed layer time over miss ServeHTTP time")
	rep.set("engine.plan_ms", per(t.plan, t.engineRuns), "ms", fmt.Sprintf("mean of %d replayed engine runs", t.engineRuns))
	rep.set("engine.allocate_ms", per(t.allocate, t.engineRuns), "ms", "")
	rep.set("engine.measure_ms", per(t.measure, t.engineRuns), "ms", "transform and noise")
	rep.set("engine.recover_ms", per(t.recover, t.engineRuns), "ms", "")
	rep.set("engine.consist_ms", per(t.consist, t.engineRuns), "ms", "")
	rep.set("engine.realized_variance_ratio", o.all.varianceRatio(), "ratio",
		fmt.Sprintf("sum err^2 / sum reported variance over %d responses", o.all.releases))
	rep.set("engine.plan_cache_hit_ratio", ratio(float64(o.after.PlanHits), float64(o.after.PlanHits+o.after.PlanMisses)), "ratio",
		"server plan cache since start")
	rep.set("datacube.release_ms", per(t.cube, t.cubeRuns), "ms", fmt.Sprintf("mean of %d cube replays", t.cubeRuns))

	synthMS, synthN := per(t.synth, t.synthRuns), t.synthRuns
	if synthN == 0 {
		// No synthetic request in this mix: sample once from a replayed
		// k=2 release so the layer is still measured.
		dur, err := b.synthProbe(ctx, o.rep)
		if err != nil {
			return err
		}
		synthMS, synthN = ms(dur), 1
	}
	rep.set("synth.sample_ms", synthMS, "ms", fmt.Sprintf("mean of %d", synthN))

	rep.set("rescache.hit_ratio", ratio(float64(o.delta.ResultHits), float64(o.delta.ResultHits+o.delta.ResultMisses)), "ratio", "over the traced stream")
	rep.set("server.coalesced", float64(o.delta.Coalesced), "count", "")
	rep.set("accountant.charges", float64(o.delta.Releases), "count", "")
	rep.set("accountant.epsilon_spent", o.delta.EpsilonSpent, "eps", "")
	chargeUS, err := b.chargeProbe(o)
	if err != nil {
		return err
	}
	rep.set("accountant.charge_us", chargeUS, "us", "p50 of Registry.Charge replaying the stream's charges")

	appends, err := b.appendTimes(ctx, o)
	if err != nil {
		return err
	}
	rep.set("store.append_ms", median(appends), "ms", fmt.Sprintf("p50 of %d append PUTs", len(appends)))
	rep.set("store.ingest_rows_per_s", median(rates), "1/s", "median over set-ups")

	resolve, err := b.resolveTimes(ctx, o)
	if err != nil {
		return err
	}
	rep.set("repro.resolve_ms", median(resolve), "ms", fmt.Sprintf("p50 of %d cold NewReleaserContext", len(resolve)))

	whtMS, n := b.whtTime(o.rep)
	rep.set("transform.wht_ms", whtMS, "ms", "median of 3 WHTWorkers on the resident vector")
	rep.set("transform.wht_gop", float64(n)*math.Log2(float64(n))/1e9, "Gop", "computed N*log2(N)")

	rt0, rt1 := un.s.runtime[0], un.s.runtime[1]
	reqs := float64(len(un.s.results))
	rep.set("process.allocs_per_req", float64(rt1.allocs-rt0.allocs)/reqs, "count", "untraced stream, client included")
	rep.set("process.gc_cpu_fraction", ratio(rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu), "ratio", "untraced stream")

	rep.set("process.steal_fraction", stolen(o.s.steal, 0, o.s.elapsed), "ratio", "CPU time the host took during the traced stream")

	unLat, trLat := latencies(un.s.results), latencies(o.s.results)
	rep.set("trace.overhead_ratio", median(trLat)/median(unLat)-1, "ratio", "traced p50 over untraced p50, minus 1")
	return nil
}

// hitProbe measures the hit path on a mix whose stream has no hits: after
// the stream it sends each warm-up shape once more with a new seed (a
// miss), then repeats it five times. It returns the repeats' ServeHTTP
// times in microseconds and checks each repeat against the miss body.
func (b *bench) hitProbe(ctx context.Context, o *outcome) ([]float64, error) {
	var out []float64
	var buf bytes.Buffer
	for i, s := range o.st.warm {
		s.Seed = mix(b.seed, int64(-500-i))
		if err := o.st.in.send(ctx, s, b.w.data, "m"+strconv.Itoa(i), &buf); err != nil {
			return nil, err
		}
		want, err := stripBudget(buf.Bytes())
		if err != nil {
			return nil, err
		}
		want = bytes.Clone(want)
		for k := 0; k < 5; k++ {
			id := fmt.Sprintf("h%d.%d", i, k)
			if err := o.st.in.send(ctx, s, b.w.data, id, &buf); err != nil {
				return nil, err
			}
			got, err := stripBudget(buf.Bytes())
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, want) {
				return nil, fmt.Errorf("hit probe: %s hit body differs from its miss", s.structKey())
			}
			sd, _ := o.st.in.spans.get(id)
			out = append(out, us(sd))
		}
	}
	return out, nil
}

// synthProbe times repro.SyntheticData on a replayed k=2 release.
func (b *bench) synthProbe(ctx context.Context, r *replayer) (time.Duration, error) {
	s := spec{Kind: kindSynthetic, Strategy: "fourier", K: 2, Epsilon: 1, Seed: mix(b.seed, -7), SynSeed: mix(b.seed, -8)}
	w := marginal.SchemaKWay(r.schema, 2)
	rel, _, err := r.runEngine(ctx, w, s)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = repro.SyntheticData(r.schema, w, &repro.Result{Answers: rel.Answers}, s.SynSeed)
	return time.Since(t0), err
}

// chargeProbe replays the traced run's admitted charges, in order, into a registry the benchmark owns and returns the p50 time of
// one Registry.Charge in microseconds.
func (b *bench) chargeProbe(o *outcome) (float64, error) {
	reg, err := accountant.NewRegistry(epsilonCap, deltaCap, nil)
	if err != nil {
		return 0, err
	}
	// The misses of a hot mix are its warm-up; of the others, the stream.
	charged := o.st.warm
	if !b.w.hot {
		charged = charged[:0:0]
		for _, r := range o.s.results {
			if r.spec.Kind != kindAppend {
				charged = append(charged, r.spec)
			}
		}
	}
	var out []float64
	for i, s := range charged {
		c := accountant.Charge{Label: "c" + strconv.Itoa(i), Epsilon: s.Epsilon, Delta: s.Delta}
		t0 := time.Now()
		err := reg.Charge("", c)
		out = append(out, us(time.Since(t0)))
		if err != nil {
			return 0, err
		}
	}
	return median(out), nil
}

// appendTimes returns the ServeHTTP times of the stream's appends, or of
// five probe appends after the stream when the mix has none.
func (b *bench) appendTimes(ctx context.Context, o *outcome) ([]float64, error) {
	var out []float64
	for _, r := range o.s.results {
		if r.spec.Kind == kindAppend {
			sd, _ := o.st.in.spans.get("s" + strconv.Itoa(int(r.slot)))
			out = append(out, ms(sd))
		}
	}
	var buf bytes.Buffer
	for k := 0; len(out) < 5; k++ {
		id := "a" + strconv.Itoa(k)
		s := spec{Kind: kindAppend, Rows: freshAppendRows, Seed: mix(b.seed, int64(-100-k))}
		if err := o.st.in.send(ctx, s, b.w.data, id, &buf); err != nil {
			return nil, err
		}
		sd, _ := o.st.in.spans.get(id)
		out = append(out, ms(sd))
	}
	return out, nil
}

// resolveTimes builds a Releaser with a cold plan cache for every release
// shape of the workload.
func (b *bench) resolveTimes(ctx context.Context, o *outcome) ([]float64, error) {
	schema := b.w.data.schema
	seen := map[string]bool{}
	var out []float64
	for _, s := range o.st.warm {
		if s.Kind == kindCube || seen[s.structKey()] {
			continue
		}
		seen[s.structKey()] = true
		kind := repro.StrategyFourier
		if s.Strategy == "workload" {
			kind = repro.StrategyWorkload
		}
		t0 := time.Now()
		_, err := repro.NewReleaserContext(ctx, schema, repro.AllKWayMarginals(schema, s.K),
			repro.WithStrategy(kind), repro.WithCache(repro.NewPlanCache()))
		out = append(out, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// whtTime times transform.WHTWorkers over a copy of the resident vector.
func (b *bench) whtTime(r *replayer) (float64, int) {
	x := make([]float64, len(r.x))
	var t []float64
	for k := 0; k < 3; k++ {
		copy(x, r.x)
		t0 := time.Now()
		transform.WHTWorkers(x, 0)
		t = append(t, ms(time.Since(t0)))
	}
	return median(t), len(x)
}
