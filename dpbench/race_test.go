//go:build race

package main

// raceEnabled lengthens the benchmark runs of the tests: the race detector
// slows the hit path about tenfold, and a run needs five blocks.
const raceEnabled = true
