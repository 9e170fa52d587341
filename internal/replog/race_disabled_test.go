//go:build !race

package replog

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
