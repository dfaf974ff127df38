//go:build !race

package sched

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
