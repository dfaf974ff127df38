//go:build race

package serve

// raceEnabled reports whether the race detector is active; allocation
// gates skip under it (instrumentation adds allocations of its own).
const raceEnabled = true
