//go:build !failatomic_portable_gls

package failatomic_test

import (
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/harness"
)

// TestHandlePrologueAllocs guards the route every bundled application
// takes: a method handle's prologue on a goroutine-bound session (the
// campaign worker's case) with fingerprint detection allocates nothing
// once warm. The binding record is made once per Bind, never per call.
// (Under failatomic_portable_gls every bound prologue reads its goroutine
// id off a 64 B stack buffer, so the guard holds for the default build
// only.)
func TestHandlePrologueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	session := core.NewSession(core.Config{Detect: true})
	target := harness.NewBenchTarget(4 << 10)
	var allocs, bytes float64
	session.Bind(func() { allocs, bytes = steadyCost(target.Work) })
	if allocs > 0 || bytes > 0 {
		t.Fatalf("bound handle detect prologue = %.2f allocs, %.1f B per call; want 0", allocs, bytes)
	}
	if n := session.Calls()["BenchTarget.Work"]; n != 1+windows*runs {
		t.Fatalf("bound session counted %d calls, want %d", n, 1+windows*runs)
	}
}
