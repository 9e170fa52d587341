// Allocation guards for the woven prologue. A wrapped call keeps its exit
// state on its session's frame stack and defers the session's one exit
// function, and the fingerprint snapshot runs out of pooled scratch, so a
// detecting call allocates nothing. These are tests, not benchmarks, so CI
// fails loudly on a regression instead of needing a human to read
// -benchmem output.
package failatomic_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
	"failatomic/internal/fault"
	"failatomic/internal/harness"
	"failatomic/internal/objgraph"
)

// prologueCost measures allocs/op and bytes/op of one wrapped call under a
// session with cfg, on the representative Figure 5 receiver (struct →
// pointer → byte slice + word array).
func prologueCost(t *testing.T, cfg core.Config) (allocs, bytes float64) {
	t.Helper()
	session := core.NewSession(cfg)
	if err := core.Install(session); err != nil {
		t.Fatal(err)
	}
	defer core.Uninstall(session)
	target := harness.NewBenchTarget(4 << 10)
	return steadyCost(target.Work)
}

// steadyCost measures windows windows of runs calls each.
const windows, runs = 5, 200

// steadyCost returns the allocs and bytes one call of f costs once warm.
// Like testing.AllocsPerRun it warms up once and runs with GOMAXPROCS 1.
// It reads the process-wide counters over a few windows of calls and
// keeps the least of each: a cost every call pays shows in every window,
// while an allocation made outside f now and then (one 200-call window in
// a hundred, on the masked call) shows in one.
func steadyCost(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// TestDetectPrologueAllocs is the acceptance guard: the fingerprint path
// allocates nothing per wrapped call, versus ~1 allocation per graph node
// for materialized snapshots.
func TestDetectPrologueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	allocs, bytes := prologueCost(t, core.Config{Detect: true})
	if allocs > 0 {
		t.Fatalf("fingerprint detect prologue = %.2f allocs/op, want 0", allocs)
	}
	if bytes > 0 {
		t.Fatalf("fingerprint detect prologue = %.1f B/op, want 0", bytes)
	}
}

// TestSerializedPrologueAllocs guards the Serialize path: its frame and
// exit function cost nothing either, leaving the one 64 B buffer the
// session lock's goroutine-id lookup (gid) reads its stack header into.
func TestSerializedPrologueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	allocs, bytes := prologueCost(t, core.Config{Detect: true, Serialize: true})
	if allocs > 1 {
		t.Fatalf("serialized detect prologue = %.2f allocs/op, want <= 1", allocs)
	}
	if bytes > 64 {
		t.Fatalf("serialized detect prologue = %.1f B/op, want <= 64", bytes)
	}
}

// TestDetectPrologueAllocReduction pins the headline ratio: fingerprint
// snapshots allocate at least 2x less than capture snapshots on the same
// receiver (in practice the gap is orders of magnitude).
func TestDetectPrologueAllocReduction(t *testing.T) {
	fp, _ := prologueCost(t, core.Config{Detect: true})
	cap, _ := prologueCost(t, core.Config{Detect: true, Snapshot: core.SnapshotCapture})
	if cap < 2*(fp+1) {
		t.Fatalf("capture = %.1f allocs/op vs fingerprint = %.1f allocs/op; want >= 2x reduction", cap, fp)
	}
}

// TestMaskedCallAllocs is the production-masking guard: a steady-state
// masked call on the 64 KiB Figure 5 target reuses the clone slab its
// previous committed checkpoint handed back, so it allocates only the
// checkpoint handle (at most 1 allocation, 48 B) instead of a fresh
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
	allocs, bytes := steadyCost(target.WorkMasked)
	if allocs > 1 {
		t.Fatalf("masked call = %.2f allocs/op, want <= 1", allocs)
	}
	if bytes > 48 {
		t.Fatalf("masked call = %.1f B/op, want <= 48", bytes)
	}
	if n := session.MaskedCalls(); n != 1+windows*runs {
		t.Fatalf("masked calls = %d, want %d", n, 1+windows*runs)
	}
}

// TestJournaledMaskedCallAllocs guards the journaled masked call: a
// steady-state masked call on the Journaled Figure 5 target checkpoints
// its receiver with one journal handle that embeds its journal, so it
// allocates that handle, the call's undo closure and the journal's
// one-record slice: at most 3 allocations.
func TestJournaledMaskedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	session := core.NewSession(core.Config{Mask: true, MaskMethods: map[string]bool{"JournalTarget.WorkMasked": true}})
	if err := core.Install(session); err != nil {
		t.Fatal(err)
	}
	defer core.Uninstall(session)
	target := harness.NewJournalTarget(64 << 10)
	allocs, _ := steadyCost(target.WorkMasked)
	if allocs > 3 {
		t.Fatalf("journaled masked call = %.2f allocs/op, want <= 3", allocs)
	}
	if n := session.MaskedCalls(); n != 1+windows*runs || len(session.MaskSkips()) != 0 {
		t.Fatalf("masked calls = %d with skips %v, want %d and none", n, session.MaskSkips(), 1+windows*runs)
	}
}

// TestReusedSessionRunAllocs guards the campaign-lived session: a warm
// session that is reset and runs again, through prologues of 24 distinct
// methods with injection counting and fingerprint snapshots, allocates
// nothing, because each method's id and slot outlive the reset. A fresh
// session per run would grow its per-method state on every run.
func TestReusedSessionRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	reg := core.NewRegistry()
	names := make([]string, 24)
	for i := range names {
		method := fmt.Sprintf("M%02d", i)
		reg.Method("BenchTarget", method, fault.IllegalState)
		names[i] = "BenchTarget." + method
	}
	cfg := core.Config{Registry: reg, Inject: true, Detect: true}
	session := core.NewSession(cfg)
	if err := core.Install(session); err != nil {
		t.Fatal(err)
	}
	defer core.Uninstall(session)
	target := harness.NewBenchTarget(4 << 10)
	allocs, bytes := steadyCost(func() {
		session.Reset(cfg)
		for _, name := range names {
			core.Enter(target, name)()
		}
	})
	if allocs > 0 || bytes > 0 {
		t.Fatalf("reset session run = %.2f allocs, %.1f B; want 0", allocs, bytes)
	}
	calls := session.Calls()
	if len(calls) != len(names) || calls[names[0]] != 1 || session.Point() != 3*len(names) {
		t.Fatalf("last run counted %v and %d points; want each of %d methods once, %d points",
			calls, session.Point(), len(names), 3*len(names))
	}
}

// chainNode is a checkpointed graph node with each kind of reference a
// deep copy clones: a pointer, a slice of pointers and a flat slice.
type chainNode struct {
	Next *chainNode
	Kids []*chainNode
	Vals []int
}

// newChain returns the head of a chain of n nodes, each listing its
// successor among its Kids too.
func newChain(n int) *chainNode {
	var head *chainNode
	for i := 0; i < n; i++ {
		head = &chainNode{Next: head, Vals: []int{i, i + 1, i + 2}}
		head.Kids = []*chainNode{head.Next}
	}
	return head
}

// touch is a wrapped call on the chain that changes nothing.
func (c *chainNode) touch() { defer core.Enter(c, "chainNode.touch")() }

// TestCleanRunRecyclesSettledCaptures guards the clean run's captures: a
// span-recording session captures the before-state of every call it
// fingerprints, and a call that settles at one point hands its capture's
// nodes back to the session at exit, so the next capture reuses them. A
// reset run of such calls then allocates as much on a 64-node chain as on
// a 2-node one; without the reuse each capture allocates a node per value.
func TestCleanRunRecyclesSettledCaptures(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	const calls = 8
	cfg := core.Config{Detect: true, RecordSpans: true}
	cost := func(nodes int) float64 {
		session := core.NewSession(cfg)
		if err := core.Install(session); err != nil {
			t.Fatal(err)
		}
		defer core.Uninstall(session)
		root := newChain(nodes)
		allocs, _ := steadyCost(func() {
			session.Reset(cfg)
			for i := 0; i < calls; i++ {
				root.touch()
			}
		})
		spans := session.Spans()
		if len(spans) != calls || spans[0].Exit != spans[0].Enter || spans[0].Unwound {
			t.Fatalf("last run recorded spans %+v; want %d calls settled at one point", spans, calls)
		}
		return allocs
	}
	small, large := cost(2), cost(64)
	if large > small {
		t.Fatalf("reset span-recording run = %.2f allocs on a 64-node chain, %.2f on a 2-node one; want no more", large, small)
	}
}

// TestRollbackAllocsMatchCommit guards rollback reuse: a rolled-back deep
// copy hands its clone objects and bookkeeping back to its strategy as a
// committed one does, so in steady state capture, mutate and Rollback on
// a 20-node graph allocates exactly what capture and Commit allocate.
func TestRollbackAllocsMatchCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	cost := func(finish func(checkpoint.Handle, *chainNode)) (allocs, bytes float64) {
		strategy := checkpoint.New()
		root := newChain(20)
		before := objgraph.Fingerprint(root)
		allocs, bytes = steadyCost(func() {
			h, err := strategy.Capture(root)
			if err != nil {
				t.Fatal(err)
			}
			finish(h, root)
		})
		if objgraph.Fingerprint(root) != before {
			t.Fatal("the graph changed across capture and rollback")
		}
		return allocs, bytes
	}
	commitAllocs, commitBytes := cost(func(h checkpoint.Handle, _ *chainNode) {
		h.(checkpoint.Committer).Commit()
	})
	rollbackAllocs, rollbackBytes := cost(func(h checkpoint.Handle, root *chainNode) {
		root.Vals[0]++
		root.Next.Next = nil
		root.Kids[0] = nil
		if err := h.Rollback(); err != nil {
			t.Fatal(err)
		}
	})
	if rollbackAllocs != commitAllocs || rollbackBytes != commitBytes {
		t.Fatalf("capture+rollback = %.2f allocs, %.1f B; capture+commit = %.2f allocs, %.1f B; want equal",
			rollbackAllocs, rollbackBytes, commitAllocs, commitBytes)
	}
}
