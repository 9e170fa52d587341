//go:build race

package replog

// raceEnabled reports whether the race detector is active; its runtime
// instruments allocations, so the exact-count allocation guards skip.
const raceEnabled = true
