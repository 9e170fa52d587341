// Allocation guards for the detection hot path. The fingerprint snapshot
// engine's budget is two allocations per wrapped call — the deferred exit
// closure and its wrapper — with the snapshot itself running out of
// pooled scratch. These are tests, not benchmarks, so CI fails loudly on
// a regression instead of needing a human to read -benchmem output.
package failatomic_test

import (
	"runtime"
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/harness"
)

// detectPrologueCost measures allocs/op and bytes/op of one wrapped call
// under a detecting session in the given snapshot mode, on the
// representative Figure 5 receiver (struct → pointer → byte slice + word
// array). Like testing.AllocsPerRun it warms up once and runs with
// GOMAXPROCS 1.
func detectPrologueCost(t *testing.T, mode core.SnapshotMode) (allocs, bytes float64) {
	t.Helper()
	session := core.NewSession(core.Config{Detect: true, Snapshot: mode})
	if err := core.Install(session); err != nil {
		t.Fatal(err)
	}
	defer core.Uninstall(session)
	target := harness.NewBenchTarget(4 << 10)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	target.Work()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		target.Work()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDetectPrologueAllocs is the acceptance guard: the fingerprint path
// does at most 2 allocations per wrapped call, versus ~1 per graph node
// for materialized snapshots, and those two (the exit closure and its
// wrapper) take at most 128 bytes — one more captured variable in the
// exit closure would move it to the next size class.
func TestDetectPrologueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	allocs, bytes := detectPrologueCost(t, core.SnapshotFingerprint)
	if allocs > 2 {
		t.Fatalf("fingerprint detect prologue = %.1f allocs/op, want <= 2", allocs)
	}
	if bytes > 128 {
		t.Fatalf("fingerprint detect prologue = %.1f B/op, want <= 128", bytes)
	}
}

// TestDetectPrologueAllocReduction pins the headline ratio: fingerprint
// snapshots allocate at least 2x less than capture snapshots on the same
// receiver (in practice the gap is orders of magnitude).
func TestDetectPrologueAllocReduction(t *testing.T) {
	fp, _ := detectPrologueCost(t, core.SnapshotFingerprint)
	cap, _ := detectPrologueCost(t, core.SnapshotCapture)
	if cap < 2*(fp+1) {
		t.Fatalf("capture = %.1f allocs/op vs fingerprint = %.1f allocs/op; want >= 2x reduction", cap, fp)
	}
}

// TestMaskedCallAllocs is the production-masking guard: a steady-state
// masked call on the 64 KiB Figure 5 target reuses the clone slab its
// previous committed checkpoint handed back, so it allocates at most
// 1 KiB (the checkpoint handle and the exit closures) instead of a fresh
// 64 KiB copy.
func TestMaskedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	session := core.NewSession(core.Config{Mask: true, MaskMethods: map[string]bool{"BenchTarget.WorkMasked": true}})
	if err := core.Install(session); err != nil {
		t.Fatal(err)
	}
	defer core.Uninstall(session)
	target := harness.NewBenchTarget(64 << 10)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	target.WorkMasked()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		target.WorkMasked()
	}
	runtime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs; bytes > 1<<10 {
		t.Fatalf("masked call = %.0f B/op, want <= 1024", bytes)
	}
	if n := session.MaskedCalls(); n != runs+1 {
		t.Fatalf("masked calls = %d, want %d", n, runs+1)
	}
}
