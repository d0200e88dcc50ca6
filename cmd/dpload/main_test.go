package main

import (
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
