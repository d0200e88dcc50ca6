package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseBenchmemCPU: the stripped -GOMAXPROCS suffix is reported (no
// suffix means 1), and inputs mixing values are refused — their allocs/op
// differ by worker fan-out alone, so no gate could compare them.
func TestParseBenchmemCPU(t *testing.T) {
	bm, cpu, err := parseBenchmem(writeBench(t, `goos: linux
BenchmarkServerRelease/inline-2   	    2337	    547314 ns/op	   62420 B/op	    1111 allocs/op
BenchmarkPerturb-2   	     100	     12345 ns/op	       0 B/op	       0 allocs/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 2 {
		t.Fatalf("cpu = %d, want 2", cpu)
	}
	if got := bm["BenchmarkServerRelease/inline"].AllocsOp; got != 1111 {
		t.Fatalf("inline allocs/op = %v, want 1111", got)
	}
	if _, cpu, err := parseBenchmem(writeBench(t, "BenchmarkPerturb \t 100 \t 12345 ns/op \t 0 allocs/op\n")); err != nil || cpu != 1 {
		t.Fatalf("unsuffixed line: cpu %d, err %v; want 1, nil", cpu, err)
	}
	_, _, err = parseBenchmem(writeBench(t, `BenchmarkPerturb-2   	 100	 12345 ns/op	 0 allocs/op
BenchmarkConsist-8   	 100	 12345 ns/op	 3 allocs/op
`))
	if err == nil || !strings.Contains(err.Error(), "mixed GOMAXPROCS") {
		t.Fatalf("mixed -cpu inputs: err %v, want a mixed-GOMAXPROCS error", err)
	}
}

// TestCompareAllocs: the gate passes a run within the slack and flags one
// past it, and it fails — rather than skipping — when the baseline ran at
// another -cpu or names a benchmark the run did not produce (as a
// workers=4 sub-benchmark does against a -cpu 2 run).
func TestCompareAllocs(t *testing.T) {
	baseline := func(cpu int, bm map[string]benchLine) string {
		raw, err := json.Marshal(report{Config: runConfig{CPU: cpu}, Benchmem: bm})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := &report{Config: runConfig{CPU: 2}, Benchmem: map[string]benchLine{
		"BenchmarkConsist/workers=2":    {NsOp: 1, AllocsOp: 315},
		"BenchmarkServerRelease/inline": {NsOp: 1, AllocsOp: 185},
	}}
	for _, tc := range []struct {
		name string
		path string
		want []string // substrings, one per expected message
	}{
		{"within slack", baseline(2, map[string]benchLine{
			"BenchmarkConsist/workers=2":    {AllocsOp: 300},
			"BenchmarkServerRelease/inline": {AllocsOp: 185},
		}), nil},
		{"regression", baseline(2, map[string]benchLine{
			"BenchmarkConsist/workers=2": {AllocsOp: 200},
		}), []string{"BenchmarkConsist/workers=2: 315 allocs/op, baseline 200"}},
		{"other cpu", baseline(0, map[string]benchLine{
			"BenchmarkConsist/workers=2": {AllocsOp: 315},
		}), []string{"ran at -cpu 0, this run at -cpu 2"}},
		{"missing counterpart", baseline(2, map[string]benchLine{
			"BenchmarkConsist/workers=4":    {AllocsOp: 315},
			"BenchmarkServerRelease/inline": {AllocsOp: 185},
		}), []string{"BenchmarkConsist/workers=4: in the baseline but not in this run"}},
	} {
		got := compareAllocs(tc.path, run, 0.05)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %q, want %d message(s)", tc.name, got, len(tc.want))
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Fatalf("%s: message %q does not contain %q", tc.name, got[i], w)
			}
		}
	}
}
