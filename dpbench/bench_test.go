package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamBytes renders everything the server receives from a workload at a
// seed, up to n stream slots: the ingested dataset, the warm-up requests
// and the timed stream.
func streamBytes(w *workload, seed int64, n int) []byte {
	var b bytes.Buffer
	b.Write(encodeNDJSON(w.data.gen(seed, w.data.tuples)))
	warm := w.warm(seed)
	for _, s := range warm {
		b.WriteString(s.path())
		b.Write(s.body(w.data))
	}
	gen := w.stream(seed, warm)
	for i := 0; i < n; i++ {
		s := gen(i)
		b.WriteString(s.path())
		b.Write(s.body(w.data))
	}
	return b.Bytes()
}

func TestSeedDeterminesDatasetAndStream(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := 3 * freshCycle
			a, b := streamBytes(w, 7, n), streamBytes(w, 7, n)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different bytes")
			}
			if bytes.Equal(a, streamBytes(w, 8, n)) {
				t.Fatal("a different seed gave the same bytes")
			}
		})
	}
}

func TestStreamShapes(t *testing.T) {
	w, err := workloadByName("nltcs-fresh")
	if err != nil {
		t.Fatal(err)
	}
	gen := w.stream(1, w.warm(1))
	kinds := map[string]int{}
	seeds := map[int64]bool{}
	for i := 0; i < 10*freshCycle; i++ {
		s := gen(i)
		kinds[s.Kind]++
		if s.Kind != kindAppend && seeds[s.Seed] {
			t.Fatalf("slot %d repeats a seed: it would be a cache hit", i)
		}
		seeds[s.Seed] = true
	}
	if kinds[kindAppend] != 10 || kinds[kindSynthetic] != 10*freshCycle/freshSynthetic {
		t.Fatalf("kinds per 10 cycles: %v", kinds)
	}
	hot, _ := workloadByName("nltcs-hot")
	if n := len(hot.warm(1)); n < 32 || n >= 256 {
		t.Fatalf("hot working set has %d entries; it must fit the result cache", n)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, q := range []float64{0.99, 0.9} {
		need := 0
		for n := 1; n <= 5000; n++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(n - i)
			}
			got := quantile(v, q)
			above := 0
			for _, x := range v {
				if x > got {
					above++
				}
			}
			if above != beyond(n, q) {
				t.Fatalf("q=%v n=%d: %d values above the quantile, beyond says %d", q, n, above, beyond(n, q))
			}
			if need == 0 && beyond(n, q) >= minBeyond {
				need = n
			}
		}
		if want := int(float64(minBeyond)/(1-q) + 0.5); need != want {
			t.Fatalf("q=%v: %d samples first leave %d beyond, want %d", q, need, minBeyond, want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEmittedMetrics runs a short benchmark in both modes and checks the
// result line: the gate passes, every metric name follows the grammar, and
// the names and units are exactly those BENCHMARK.json declares.
func TestEmittedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for trace, decl := range map[string][]struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}{"0": bf.EndToEnd, "1": bf.PerLayer} {
		seconds := "2"
		if raceEnabled {
			seconds = "12"
		}
		var out, errOut bytes.Buffer
		code := run(context.Background(), []string{"--workload", "nltcs-hot", "--seed", "3", "--seconds", seconds, "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", trace, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		want := map[string]string{}
		for _, m := range decl {
			want[m.Name] = m.Unit
		}
		var got []string
		for name, m := range rep.Metrics {
			got = append(got, name)
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q does not match %s", name, metricName)
			}
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("trace %s: metric %s [%s] is not declared as such in BENCHMARK.json", trace, name, m.Unit)
			}
		}
		if len(got) != len(want) {
			sort.Strings(got)
			t.Errorf("trace %s: emitted %d metrics %v, BENCHMARK.json declares %d", trace, len(got), got, len(want))
		}
	}
}

// TestAppendIsABarrier drives the dispatcher from several goroutines: an
// append slot never overlaps another request, and every slot before it has
// returned when it starts.
func TestAppendIsABarrier(t *testing.T) {
	gen := func(i int) spec {
		if i%10 == 9 {
			return spec{Kind: kindAppend}
		}
		return spec{Kind: kindRelease}
	}
	d := newDispatcher(time.Now().Add(200*time.Millisecond), gen)
	var (
		mu       sync.Mutex
		running  = map[int]bool{}
		finished = map[int]bool{}
		wg       sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, s, ok := d.acquire()
				if !ok {
					return
				}
				mu.Lock()
				if s.Kind == kindAppend && len(running) > 0 {
					t.Errorf("append slot %d overlaps slots %v", i, running)
				}
				for j := 0; j < i; j++ {
					if j%10 == 9 && !finished[j] {
						t.Errorf("slot %d started before append slot %d returned", i, j)
					}
					if s.Kind == kindAppend && !finished[j] {
						t.Errorf("append slot %d started before slot %d returned", i, j)
					}
				}
				running[i] = true
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				delete(running, i)
				finished[i] = true
				mu.Unlock()
				d.done(s)
			}
		}()
	}
	wg.Wait()
	if len(finished) < 20 {
		t.Fatalf("only %d slots ran", len(finished))
	}
}
