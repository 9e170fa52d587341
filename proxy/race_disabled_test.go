//go:build !race

package proxy

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
