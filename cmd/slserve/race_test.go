//go:build race

package main

// raceEnabled skips the exact allocation checks under the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = true
