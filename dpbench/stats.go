package main

import (
	"errors"
	"math"
	"os"
	"regexp"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for the percentile to mean anything.
const minBeyond = 10

// rank is the 1-based nearest-rank position of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(n, r))
}

// beyond is the number of samples above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// quantile is the nearest-rank q-quantile of the values (sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[rank(len(v), q)-1]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricName is the grammar every emitted metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// stealSample is a reading of the machine's CPU time counters: the ticks
// the host stole from this machine's virtual CPUs, and all ticks, summed
// over CPUs.
type stealSample struct {
	at           time.Duration // since the stream began
	steal, total uint64
}

// readSteal reads the aggregate cpu line of /proc/stat.
func readSteal(at time.Duration) (stealSample, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}, errors.New("/proc/stat: no aggregate cpu line")
	}
	s := stealSample{at: at}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealSample{}, err
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s, nil
}

// stolen is the share of CPU time the host took over [from, to], from the
// samples enclosing the interval; 0 without samples.
func stolen(samples []stealSample, from, to time.Duration) float64 {
	i := sort.Search(len(samples), func(k int) bool { return samples[k].at > from }) - 1
	j := sort.Search(len(samples), func(k int) bool { return samples[k].at >= to })
	i, j = max(i, 0), min(j, len(samples)-1)
	if j <= i {
		return 0
	}
	return ratio(float64(samples[j].steal-samples[i].steal), float64(samples[j].total-samples[i].total))
}

// runtimeSample reads the process-wide counters the process layer reports.
type runtimeSample struct {
	allocs     uint64  // heap objects allocated
	gcCPU, cpu float64 // GC and total CPU seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: s[2].Value.Float64()}
}
