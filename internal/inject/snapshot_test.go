package inject

import (
	"context"
	"reflect"
	"testing"

	"failatomic/internal/core"
)

// TestFingerprintCampaignMatchesCapture is the byte-identity contract of
// the fingerprint-first engine: a campaign under the default fingerprint
// snapshots — with its deterministic diff-recovery replays — produces a
// Result deeply equal to an all-capture campaign, Mark.Diff strings
// included.
func TestFingerprintCampaignMatchesCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "sequential", 4: "parallel"}[workers]
		t.Run(name, func(t *testing.T) {
			fp, err := Campaign(context.Background(), testProgram(), Options{
				Parallelism: workers,
				Snapshot:    core.SnapshotFingerprint,
			})
			if err != nil {
				t.Fatal(err)
			}
			cap, err := Campaign(context.Background(), testProgram(), Options{
				Parallelism: workers,
				Snapshot:    core.SnapshotCapture,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fp.Runs, cap.Runs) {
				t.Fatalf("fingerprint campaign runs differ from capture:\n got %+v\nwant %+v", fp.Runs, cap.Runs)
			}
			if fp.Injections != cap.Injections || fp.TotalPoints != cap.TotalPoints {
				t.Fatalf("campaign totals differ: fp=%d/%d capture=%d/%d",
					fp.Injections, fp.TotalPoints, cap.Injections, cap.TotalPoints)
			}
			if !reflect.DeepEqual(fp.Warnings, cap.Warnings) {
				t.Fatalf("warnings differ: %v vs %v", fp.Warnings, cap.Warnings)
			}
		})
	}
}

// TestFingerprintRecoveryFillsEveryDiff asserts the recovery invariant
// directly: after a default-mode campaign, no recorded mark is non-atomic
// with an empty diff (the recovery pass replaced every such run).
func TestFingerprintRecoveryFillsEveryDiff(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawNonAtomic := false
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			if !m.Atomic {
				sawNonAtomic = true
				if m.Diff == "" {
					t.Fatalf("point %d: non-atomic mark %q has no diff (recovery missed it)", run.InjectionPoint, m.Method)
				}
			}
		}
	}
	if !sawNonAtomic {
		t.Fatal("test program recorded no non-atomic marks; the recovery path was not exercised")
	}
}

// TestSupervisedFingerprintMatchesCapture extends the identity through
// the watchdog/retry layer (scoped sessions, fresh goroutine per run).
func TestSupervisedFingerprintMatchesCapture(t *testing.T) {
	fp, err := Campaign(context.Background(), testProgram(), Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := Campaign(context.Background(), testProgram(), Options{MaxRetries: 1, Snapshot: core.SnapshotCapture})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp.Runs, cap.Runs) {
		t.Fatalf("supervised fingerprint runs differ from capture:\n got %+v\nwant %+v", fp.Runs, cap.Runs)
	}
}

// countingProgram is testProgram with an invocation counter. With
// alternate set, even invocations first exercise a throwaway stack, which
// shifts every point and call ordinal — a nondeterministic workload whose
// replays never match the run they replay.
func countingProgram(invocations *int, alternate bool) *Program {
	p := testProgram()
	p.Run = func() {
		*invocations++
		if alternate && *invocations%2 == 0 {
			(&stack{}).PushSafe(0)
		}
		d := &driver{S: &stack{}}
		d.Fill(3)
	}
	return p
}

// TestRecoveryReplaysOnceTargeted: on a deterministic workload a run with
// non-atomic marks costs exactly one replay, and the patched run equals
// the all-capture run.
func TestRecoveryReplaysOnceTargeted(t *testing.T) {
	ex := Experiment{Key: RunKey{Point: hangPoint}, point: hangPoint}
	var n int
	out := execute(countingProgram(&n, false), ex, Options{})
	if n != 2 {
		t.Fatalf("workload invoked %d times, want 2 (run + targeted replay)", n)
	}
	want := execute(countingProgram(new(int), false), ex, Options{Snapshot: core.SnapshotCapture})
	if !hasNonAtomic(want.run) {
		t.Fatal("point must record non-atomic marks for the recovery path to run")
	}
	if !reflect.DeepEqual(out.run, want.run) {
		t.Fatalf("recovered run differs from capture:\n got %+v\nwant %+v", out.run, want.run)
	}
}

// TestRecoveryFallsBackOnDivergence: when the targeted replay of a
// nondeterministic workload does not mark the targeted calls, the run is
// replayed again with every call captured and that replay is adopted —
// the behavior an all-capture campaign would have recorded.
func TestRecoveryFallsBackOnDivergence(t *testing.T) {
	ex := Experiment{Key: RunKey{Point: hangPoint}, point: hangPoint}
	var n int
	out := execute(countingProgram(&n, true), ex, Options{})
	if n != 3 {
		t.Fatalf("workload invoked %d times, want 3 (run, targeted replay, full replay)", n)
	}
	// Invocations 1 and 3 take the same branch, so the adopted full
	// replay equals a capture run of that branch.
	want := execute(countingProgram(new(int), false), ex, Options{Snapshot: core.SnapshotCapture})
	if !reflect.DeepEqual(out.run, want.run) {
		t.Fatalf("fallback run differs from capture:\n got %+v\nwant %+v", out.run, want.run)
	}
}

// divergingProgram is testProgram's Fill(3) workload with an invocation
// counter; when diverge reports true for an invocation, the stack starts
// over capacity, so the first ensure throws organically and unwinds calls
// that returned normally in every other invocation.
func divergingProgram(invocations *int, diverge func(n int) bool) *Program {
	p := testProgram()
	p.Run = func() {
		*invocations++
		d := &driver{S: &stack{}}
		if diverge(*invocations) {
			d.S.Count = 1<<20 + 1
		}
		d.Fill(3)
	}
	return p
}

// TestPredictMissRedoesFullRun: a predicted first pass that unwinds
// through calls its clean run's spans excluded counts a miss, is redone
// with every call snapshotted, and the redo is adopted — the run an
// unpredicted campaign would have recorded.
func TestPredictMissRedoesFullRun(t *testing.T) {
	// Point 10 lies past the first ensure (points 5–7), so the diverged
	// pass throws before the injection, through ensure#1 and Push#1.
	const point = 10
	var n int
	p := divergingProgram(&n, func(n int) bool { return n == 2 })
	clean, err := cleanRun(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := Experiment{Key: RunKey{Point: point}, point: point, predict: core.IndexSpans(clean.spans)}
	out := execute(p, ex, Options{})
	// clean run, diverged predicted pass, full redo, diff replay
	if n != 4 {
		t.Fatalf("workload invoked %d times, want 4", n)
	}
	if !out.missed {
		t.Fatal("the diverged pass was not flagged as a miss")
	}
	ex.predict = nil
	want := executeOnce(divergingProgram(new(int), func(int) bool { return false }), ex, Options{Snapshot: core.SnapshotCapture}, nil)
	if !hasNonAtomic(want.run) {
		t.Fatal("point must record non-atomic marks for the diff replay to run")
	}
	if !reflect.DeepEqual(out.run, want.run) {
		t.Fatalf("redone run differs from the every-call capture run:\n got %+v\nwant %+v", out.run, want.run)
	}

	// Masked, the diverged pass also skips Push#1's checkpoint (the clean
	// run saw it return before point 10), and ensure#1's organic unwind
	// through it is the same miss. The redo checkpoints every call, so the
	// settled run — MaskStats and rollbacks included — is the every-call
	// run's. Rolled back, its marks read atomic, so no diff replay follows.
	masked := Options{Mask: map[string]bool{"stack.Push": true, "driver.Fill": true}}
	n = 0
	p = divergingProgram(&n, func(n int) bool { return n == 2 })
	if clean, err = cleanRun(context.Background(), p, masked); err != nil {
		t.Fatal(err)
	}
	ex.predict = core.IndexSpans(clean.spans)
	first := executeOnce(divergingProgram(new(int), func(int) bool { return true }), ex, masked, nil)
	if !first.missed || first.maskStats()["stack.Push"].Rollbacks != 0 {
		t.Fatalf("diverged pass: missed=%v, Push %+v; want a miss and no checkpoint to roll back", first.missed, first.maskStats()["stack.Push"])
	}
	out = execute(p, ex, masked)
	if n != 3 || !out.missed {
		t.Fatalf("masked: workload invoked %d times (want 3), missed=%v", n, out.missed)
	}
	ex.predict = nil
	masked.Snapshot = core.SnapshotCapture
	want = executeOnce(divergingProgram(new(int), func(int) bool { return false }), ex, masked, nil)
	if want.maskStats()["stack.Push"].Rollbacks == 0 {
		t.Fatalf("point must roll a masked Push back: %+v", want.maskStats())
	}
	if !reflect.DeepEqual(out.run, want.run) || !reflect.DeepEqual(out.maskStats(), want.maskStats()) {
		t.Fatalf("masked redone run differs from the every-call capture run:\n got %+v %+v\nwant %+v %+v", out.run, out.maskStats(), want.run, want.maskStats())
	}

	// Through a campaign, every predicted run past point 7 of a workload
	// that diverges after its clean run misses and counts on the Result.
	n = 0
	res, err := Campaign(context.Background(), divergingProgram(&n, func(n int) bool { return n > 1 }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.TotalPoints - 7; res.PredictMisses != want {
		t.Fatalf("PredictMisses = %d, want %d", res.PredictMisses, want)
	}
	for _, run := range res.Runs[8:] {
		if len(run.Marks) != 3 || run.Injected != nil {
			t.Fatalf("point %d: want the organic unwind of ensure, Push and Fill, got %+v", run.InjectionPoint, run)
		}
	}
}

func hasNonAtomic(run Run) bool {
	for _, m := range run.Marks {
		if !m.Atomic {
			return true
		}
	}
	return false
}

func hasDiffless(run Run) bool {
	for _, m := range run.Marks {
		if !m.Atomic && m.Diff == "" {
			return true
		}
	}
	return false
}

// TestQuarantinedCrasherRecovery: a point quarantined for a deterministic
// foreign crash gets its diffs from the targeted replay (matching an
// all-capture campaign), while a crasher that stops crashing on the replay
// keeps its diffless marks rather than diffs from a run it never had.
func TestQuarantinedCrasherRecovery(t *testing.T) {
	crash := func(int, any) { panic("boom: corrupted state") }
	fp, err := Campaign(context.Background(), misbehavingProgram(hangPoint, crash), Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := Campaign(context.Background(), misbehavingProgram(hangPoint, crash), Options{MaxRetries: 1, Snapshot: core.SnapshotCapture})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Runs[hangPoint].Status != RunUndetermined || !hasNonAtomic(fp.Runs[hangPoint]) {
		t.Fatalf("point %d must be quarantined with non-atomic marks: %+v", hangPoint, fp.Runs[hangPoint])
	}
	if !reflect.DeepEqual(fp.Runs, cap.Runs) {
		t.Fatalf("quarantined fingerprint runs differ from capture:\n got %+v\nwant %+v", fp.Runs[hangPoint], cap.Runs[hangPoint])
	}

	// Both supervised attempts crash; the recovery replay (attempt 3)
	// completes normally, so it is not adopted.
	flaky := misbehavingProgram(hangPoint, func(attempt int, r any) {
		if attempt <= 2 {
			panic("flaky: transient crash")
		}
		panic(r)
	})
	res, err := Campaign(context.Background(), flaky, Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[hangPoint]
	if run.Status != RunUndetermined || !hasDiffless(run) {
		t.Fatalf("flaky crasher must keep its diffless marks: %+v", run)
	}
}

// resettingProgram pushes once, rewrites the stack's items when that push
// was interrupted, then pushes over capacity so the second push unwinds
// organically, non-atomic. An injection in the first push therefore
// enters the second one from a before-state the clean run never saw,
// under the same call identity as the clean run's second push.
func resettingProgram(invocations *int) *Program {
	p := testProgram()
	p.Run = func() {
		*invocations++
		s := &stack{}
		if runGuarded(func() { s.Push(1) }) != nil {
			s.Items = []int{9}
		}
		s.Count = 1 << 20
		runGuarded(func() { s.Push(2) })
	}
	return p
}

// TestCleanDiffNeedsMatchingFingerprint: a predicted pass reads a mark's
// diff off the clean run's capture only when the call's before-state has
// the clean fingerprint. Injected inside the first push, the run reads
// that push's diff off the clean run, but the second push — same call
// identity, diverged before-state — gets none and is recovered by one
// targeted replay; the settled run still equals the all-capture run.
func TestCleanDiffNeedsMatchingFingerprint(t *testing.T) {
	// Push#1 counts points 1–2 and ensure#1 points 3–5; point 4 fires
	// inside ensure#1, after Push#1 bumped Count.
	const point = 4
	var n int
	p := resettingProgram(&n)
	clean, err := cleanRun(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := Experiment{Key: RunKey{Point: point}, point: point, predict: core.IndexSpans(clean.spans)}
	first := executeOnce(p, ex, Options{}, nil)
	n = 0
	out := execute(p, ex, Options{})
	ex.predict = nil
	want := execute(resettingProgram(new(int)), ex, Options{Snapshot: core.SnapshotCapture})
	if !reflect.DeepEqual(out.run, want.run) {
		t.Fatalf("settled run differs from the all-capture run:\n got %+v\nwant %+v", out.run, want.run)
	}
	if n != 2 || out.replays != 1 {
		t.Fatalf("workload invoked %d times with %d replays, want 2 and 1 (run + targeted replay)", n, out.replays)
	}
	byCall := map[core.CallID]int{}
	for i, c := range first.markCalls {
		byCall[c] = i
	}
	push1, ok1 := byCall[core.CallID{Method: "stack.Push", Call: 1}]
	push2, ok2 := byCall[core.CallID{Method: "stack.Push", Call: 2}]
	if !ok1 || !ok2 || len(first.diffs) != len(first.run.Marks) {
		t.Fatalf("first pass marked %v with diffs %q; want both pushes marked, one diff per mark", first.markCalls, first.diffs)
	}
	if d := first.diffs[push1]; d == "" || d != want.run.Marks[push1].Diff {
		t.Fatalf("Push#1 read %q off the clean run, capture says %q", d, want.run.Marks[push1].Diff)
	}
	if d := first.diffs[push2]; d != "" || want.run.Marks[push2].Diff == "" {
		t.Fatalf("Push#2 read %q off a clean capture of another before-state (capture says %q)", d, want.run.Marks[push2].Diff)
	}
}
