package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
)

// Request kinds. Every kind except kindAppend is release-shaped: it charges
// the ledger on a miss and is served from the result cache on a hit.
const (
	kindRelease   = "release"
	kindCube      = "cube"
	kindSynthetic = "synthetic"
	kindAppend    = "append"
)

// datasetID is the id every workload ingests its rows under.
const datasetID = "bench"

// gaussDelta is the δ of the Gaussian requests. Every ε and δ the benchmark
// sends is a dyadic rational, so the ledger's floating-point sums are exact
// in any charge order and the ledger check can demand equality.
const gaussDelta = 1.0 / (1 << 30)

// spec is one generated request.
type spec struct {
	Kind     string
	Strategy string // "fourier" or "workload"; empty for appends
	K        int    // marginal order (release, synthetic)
	MaxOrder int    // cube
	Epsilon  float64
	Delta    float64
	Seed     int64
	SynSeed  int64 // synthetic
	Rows     int   // append: rows in the delta
}

// structKey names everything structural about a request: the parts that
// select a workload and strategy, and so a plan, but not ε, δ or the seeds.
func (s spec) structKey() string {
	switch s.Kind {
	case kindCube:
		return fmt.Sprintf("cube/%s/mo%d", s.Strategy, s.MaxOrder)
	case kindAppend:
		return kindAppend
	default:
		return fmt.Sprintf("%s/%s/k%d", s.Kind, s.Strategy, s.K)
	}
}

// wireRequest is the JSON body of a release-shaped request, spelled as the
// server's wire format spells it.
type wireRequest struct {
	DatasetID     string        `json:"dataset_id"`
	Workload      *wireWorkload `json:"workload,omitempty"`
	Epsilon       float64       `json:"epsilon"`
	Delta         float64       `json:"delta,omitempty"`
	Seed          int64         `json:"seed"`
	Strategy      string        `json:"strategy,omitempty"`
	SyntheticSeed int64         `json:"synthetic_seed,omitempty"`
	MaxOrder      int           `json:"max_order,omitempty"`
}

type wireWorkload struct {
	K int `json:"k"`
}

// path is the request's endpoint.
func (s spec) path() string {
	if s.Kind == kindAppend {
		return "/v1/datasets/" + datasetID + "?mode=append"
	}
	return "/v1/" + s.Kind
}

// body renders the request body. An append's body is its delta rows as
// NDJSON, generated from the request seed.
func (s spec) body(d *dataDef) []byte {
	if s.Kind == kindAppend {
		return encodeNDJSON(d.gen(s.Seed, s.Rows))
	}
	req := wireRequest{
		DatasetID: datasetID,
		Epsilon:   s.Epsilon,
		Delta:     s.Delta,
		Seed:      s.Seed,
		Strategy:  s.Strategy,
		MaxOrder:  s.MaxOrder,
	}
	if s.Kind != kindCube {
		req.Workload = &wireWorkload{K: s.K}
	}
	if s.Kind == kindSynthetic {
		req.SyntheticSeed = s.SynSeed
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of numbers and strings always marshals
	}
	return b
}

// dataDef is one of the paper's two datasets, generated locally.
type dataDef struct {
	tuples int
	schema *dataset.Schema
	gen    func(seed int64, tuples int) *dataset.Table
}

var (
	nltcsData = &dataDef{tuples: dataset.NLTCSTupleCount, schema: dataset.NLTCSSchema(), gen: dataset.SyntheticNLTCS}
	adultData = &dataDef{tuples: dataset.AdultTupleCount, schema: dataset.AdultSchema(), gen: dataset.SyntheticAdult}
)

// workload is one traffic mix. All mixes are closed loops: each client
// sends its next request only when the last one has returned.
type workload struct {
	name    string
	data    *dataDef
	clients int
	// tail is the latency percentile reported as latency_tail_ms, fixed so
	// that at least minBeyond samples lie beyond it at the run length.
	tail float64
	// warm lists the warm-up requests, sent serially during set-up. They
	// fill the plan cache and the Releaser registry; for a hot workload
	// they are the working set itself.
	warm func(seed int64) []spec
	// stream returns the generator of the timed stream: the request for
	// slot i. A generator is not safe for concurrent use.
	stream func(seed int64, warm []spec) func(i int) spec
	// hot marks a workload whose stream only replays the warm-up set, so
	// every timed request must be a result-cache hit.
	hot bool
	// prefix is the number of leading stream slots whose responses are
	// always kept and verified in full; the accuracy metrics are computed
	// over them (or over the warm-up set of a hot workload), so they cover
	// the same requests on every run of a seed.
	prefix int
	// stride and extra select further kept slots across the rest of the
	// stream: every stride-th slot, at most extra of them.
	stride, extra int
	// block is the number of consecutive slots the throughput and median
	// latency are taken over: whole cycles of the mix, so every block
	// carries the same mix. The run reports the median over its blocks,
	// which a burst of interference from outside the process cannot move.
	block int
}

// The workloads, each named with the reason it exists (BENCHMARK.json
// carries the same reasons).
var workloads = []*workload{
	{
		// A dashboard replaying a fixed working set: every timed request is
		// a free result-cache hit, so the server and rescache hit path do
		// all the work and the engine none.
		name:    "nltcs-hot",
		data:    nltcsData,
		clients: 2,
		tail:    0.99,
		warm:    hotWorkingSet,
		stream:  hotStream,
		hot:     true,
		stride:  1, // with no extra slots kept: the warm-up set is the verified sample
		block:   16 * 63,
	},
	{
		// Analysts releasing over a growing dataset: every request misses
		// and charges, so the engine, the ledger and the server's decode and
		// encode all carry load, and the appends invalidate cached state.
		name:    "nltcs-fresh",
		data:    nltcsData,
		clients: 2,
		tail:    0.99,
		warm:    freshWarm,
		stream:  freshStream,
		prefix:  2 * freshCycle,
		stride:  97,
		extra:   48,
		block:   freshCycle,
	},
	{
		// The paper's ε sweep at full Adult scale with one client: engine
		// measure (transform and noise over 2^23 cells) does almost all the
		// work and the server almost none, the mirror image of nltcs-hot.
		name:    "adult-sweep",
		data:    adultData,
		clients: 1,
		tail:    0.90,
		warm:    adultWarm,
		stream:  adultStream,
		prefix:  2 * adultCycle,
		stride:  7,
		extra:   6,
		block:   adultCycle,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mix derives a request seed from the workload seed and a stream position
// (splitmix64), so each slot's seed depends on nothing but the two.
func mix(seed int64, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Warm-up requests draw their seeds from negative stream positions, so
// they never collide with a timed request's seed.
func warmSeed(seed int64, i int) int64 { return mix(seed, -1-int64(i)) }

// hotWorkingSet is 63 distinct dataset-backed requests: releases with
// k ∈ {1,2,3} over the Fourier and Workload strategies plus cubes with
// max_order 1–3, seven (ε, seed) variants each. It stays well below the
// result cache's 256 entries.
func hotWorkingSet(seed int64) []spec {
	eps := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	var shapes []spec
	for _, st := range []string{"fourier", "workload"} {
		for k := 1; k <= 3; k++ {
			shapes = append(shapes, spec{Kind: kindRelease, Strategy: st, K: k})
		}
	}
	for mo := 1; mo <= 3; mo++ {
		shapes = append(shapes, spec{Kind: kindCube, Strategy: "fourier", MaxOrder: mo})
	}
	var out []spec
	for v, e := range eps {
		for _, sh := range shapes {
			sh.Epsilon = e
			if v%3 == 2 {
				sh.Delta = gaussDelta
			}
			sh.Seed = warmSeed(seed, len(out))
			out = append(out, sh)
		}
	}
	return out
}

// hotStream replays the working set in a seeded order, reshuffled per
// pass over it.
func hotStream(seed int64, warm []spec) func(int) spec {
	n := len(warm)
	pass, perm := -1, []int(nil)
	return func(i int) spec {
		if p := i / n; p != pass {
			pass = p
			perm = rand.New(rand.NewSource(mix(seed, int64(-1000000-p)))).Perm(n)
		}
		return warm[perm[i%n]]
	}
}

// freshCycle is the nltcs-fresh slot cycle: one append and four synthetic
// requests per cycle, the rest rotating through freshMix. Synthetic
// requests cost ~15x a release, so at 2 % of the slots they take about a
// fifth of the time, and the p99 falls inside their latency cluster
// rather than in the sparse gap below it.
const (
	freshCycle     = 200
	freshSynthetic = 50 // one synthetic request every freshSynthetic slots
)

// freshMix is the rotating release-shaped part of nltcs-fresh. Three in
// four requests are Fourier k=2 releases or order-2 cubes (~1.7 ms each),
// so the median lands inside that cluster; Fourier k=3 (~5 ms) and one
// Workload k=2 (~20 ms) carry most of the remaining engine time.
var freshMix = []spec{
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 0.5},
	{Kind: kindCube, Strategy: "fourier", MaxOrder: 2, Epsilon: 0.5},
	{Kind: kindRelease, Strategy: "fourier", K: 3, Epsilon: 1},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 1, Delta: gaussDelta},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 0.25},
	{Kind: kindCube, Strategy: "fourier", MaxOrder: 2, Epsilon: 1},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 2},
	{Kind: kindRelease, Strategy: "fourier", K: 3, Epsilon: 0.5, Delta: gaussDelta},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 1},
	{Kind: kindCube, Strategy: "fourier", MaxOrder: 2, Epsilon: 0.25},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 0.5, Delta: gaussDelta},
	{Kind: kindCube, Strategy: "fourier", MaxOrder: 2, Epsilon: 2},
	{Kind: kindRelease, Strategy: "fourier", K: 3, Epsilon: 2},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 0.125},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 4},
	{Kind: kindCube, Strategy: "fourier", MaxOrder: 2, Epsilon: 0.5, Delta: gaussDelta},
	{Kind: kindRelease, Strategy: "workload", K: 2, Epsilon: 0.5},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 1},
	{Kind: kindRelease, Strategy: "fourier", K: 3, Epsilon: 0.25},
	{Kind: kindRelease, Strategy: "fourier", K: 2, Epsilon: 0.5},
}

var freshSyntheticSpec = spec{Kind: kindSynthetic, Strategy: "fourier", K: 2, Epsilon: 1}

// freshAppendRows is the size of each append delta.
const freshAppendRows = 32

func freshWarm(seed int64) []spec {
	out := append([]spec(nil), freshMix...)
	out = append(out, freshSyntheticSpec)
	for i := range out {
		out[i].Seed = warmSeed(seed, i)
		out[i].SynSeed = warmSeed(seed, 100+i)
	}
	return out
}

func freshStream(seed int64, _ []spec) func(int) spec {
	return func(i int) spec {
		var s spec
		switch p := i % freshCycle; {
		case p == freshCycle-1:
			s = spec{Kind: kindAppend, Rows: freshAppendRows}
		case p%freshSynthetic == freshSynthetic/2:
			s = freshSyntheticSpec
			s.SynSeed = mix(seed^0x5eed, int64(i))
		default:
			s = freshMix[p%len(freshMix)]
		}
		s.Seed = mix(seed, int64(i))
		return s
	}
}

// adultEpsilons is the ε grid of the sweep; adultCycle slots cover it once
// for each of the three request shapes.
var adultEpsilons = []float64{0.25, 0.5, 1, 2}

var adultShapes = []spec{
	{Kind: kindRelease, Strategy: "fourier", K: 2},
	{Kind: kindRelease, Strategy: "workload", K: 2},
	{Kind: kindCube, Strategy: "fourier", MaxOrder: 2},
}

var adultCycle = len(adultEpsilons) * len(adultShapes)

func adultWarm(seed int64) []spec {
	out := append([]spec(nil), adultShapes...)
	for i := range out {
		out[i].Epsilon = 1
		out[i].Seed = warmSeed(seed, i)
	}
	return out
}

func adultStream(seed int64, _ []spec) func(int) spec {
	return func(i int) spec {
		p := i % adultCycle
		s := adultShapes[p%len(adultShapes)]
		s.Epsilon = adultEpsilons[p/len(adultShapes)]
		s.Seed = mix(seed, int64(i))
		return s
	}
}

// encodeNDJSON renders a table in the store's ingest format: a schema
// header line, then one JSON array per tuple.
func encodeNDJSON(t *dataset.Table) []byte {
	var b bytes.Buffer
	b.WriteString(`{"schema":[`)
	for i, a := range t.Schema.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(a.Name)
		b.WriteString(`{"name":`)
		b.Write(name)
		b.WriteString(`,"cardinality":`)
		b.WriteString(strconv.Itoa(a.Cardinality))
		b.WriteByte('}')
	}
	b.WriteString("]}\n")
	buf := make([]byte, 0, 64)
	for _, row := range t.Rows {
		buf = append(buf[:0], '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		buf = append(buf, "]\n"...)
		b.Write(buf)
	}
	return b.Bytes()
}
