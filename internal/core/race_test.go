//go:build race

package core

// raceEnabled skips the exact allocation ratchets under the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = true
