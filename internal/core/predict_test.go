package core

import (
	"reflect"
	"slices"
	"testing"

	"failatomic/internal/checkpoint"
	"failatomic/internal/fault"
)

// ledger unwinds organically: Add bumps N, then check throws when told to.
type ledger struct{ N int }

func (l *ledger) Add(fail bool) {
	defer Enter(l, "ledger.Add")()
	l.N++
	l.check(fail)
}

func (l *ledger) check(fail bool) {
	defer Enter(l, "ledger.check")()
	if fail {
		fault.Throw(fault.IllegalArgument, "ledger.check", "rejected")
	}
}

// ledgerWorkload makes three Add calls; the second (or, with diverge, the
// first) unwinds organically. Every escape is caught, so the workload runs
// on after an injection.
func ledgerWorkload(diverge bool) {
	l := &ledger{}
	for _, fail := range []bool{diverge, true, false} {
		catchPanic(func() { l.Add(fail) })
	}
}

// ledgerConfig counts one runtime point per call, so points and spans are
// easy to read off: Add#k enters at 2k-1, its check at 2k.
func ledgerConfig() Config {
	return Config{
		Inject:       true,
		Detect:       true,
		Snapshot:     SnapshotCapture,
		RuntimeKinds: []fault.Kind{fault.RuntimeError},
	}
}

type ledgerObservation struct {
	marks  []Mark
	calls  []CallID
	spans  []Span
	misses int
}

func observeLedger(t *testing.T, cfg Config, diverge bool) ledgerObservation {
	t.Helper()
	var obs ledgerObservation
	withSession(t, cfg, func(s *Session) {
		ledgerWorkload(diverge)
		obs = ledgerObservation{s.Marks(), s.AppendMarkCalls(nil), s.Spans(), s.PredictMisses()}
	})
	return obs
}

// TestSpansRecordNestedAndOrganicUnwinds: a span-recording clean run
// records one span per receiver-bearing call in entry order, with the
// counter at entry and exit and whether the call unwound.
func TestSpansRecordNestedAndOrganicUnwinds(t *testing.T) {
	cfg := ledgerConfig()
	cfg.RecordSpans = true
	got := observeLedger(t, cfg, false).spans
	want := []Span{
		{Call: CallID{"ledger.Add", 1}, Enter: 1, Exit: 2},
		{Call: CallID{"ledger.check", 1}, Enter: 2, Exit: 2},
		{Call: CallID{"ledger.Add", 2}, Enter: 3, Exit: 4, Unwound: true},
		{Call: CallID{"ledger.check", 2}, Enter: 4, Exit: 4, Unwound: true},
		{Call: CallID{"ledger.Add", 3}, Enter: 5, Exit: 6},
		{Call: CallID{"ledger.check", 3}, Enter: 6, Exit: 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans:\n got %+v\nwant %+v", got, want)
	}
	if observeLedger(t, ledgerConfig(), false).spans != nil {
		t.Fatal("a session without RecordSpans recorded spans")
	}

	x := IndexSpans(got)
	for _, c := range []struct {
		call  CallID
		point int
		want  bool
	}{
		{CallID{"ledger.Add", 1}, 1, false},    // entered by the firing point itself
		{CallID{"ledger.Add", 1}, 2, true},     // (b): live when point 2 fires
		{CallID{"ledger.Add", 1}, 3, false},    // returned normally before point 3
		{CallID{"ledger.check", 2}, 4, false},  // not yet entered at point 4
		{CallID{"ledger.check", 2}, 5, true},   // (a): unwound before point 5
		{CallID{"ledger.Add", 2}, 99, true},    // (a) holds for every later point
		{CallID{"ledger.check", 9}, 1, true},   // a call the clean run never made
		{CallID{"ledger.unknown", 1}, 1, true}, // an unknown method
	} {
		if got := x.MayUnwind(c.call, c.point); got != c.want {
			t.Errorf("MayUnwind(%v, %d) = %v, want %v", c.call, c.point, got, c.want)
		}
	}
}

// TestPredictedSessionsMatchFullSnapshots: at every threshold, a session
// predicted from the clean run's spans records exactly the marks of an
// every-call session with no misses — including the organic unwinds of
// calls entered after the injection, which only the widening covers — and
// a multi-fire trigger ignores the prediction.
func TestPredictedSessionsMatchFullSnapshots(t *testing.T) {
	clean := ledgerConfig()
	clean.RecordSpans = true
	index := IndexSpans(observeLedger(t, clean, false).spans)
	for point := 1; point <= 7; point++ {
		cfg := ledgerConfig()
		cfg.InjectionPoint = point
		full := observeLedger(t, cfg, false)
		cfg.Predict = index
		got := observeLedger(t, cfg, false)
		if !reflect.DeepEqual(got.marks, full.marks) || !reflect.DeepEqual(got.calls, full.calls) {
			t.Fatalf("point %d: predicted marks differ:\n got %+v\nwant %+v", point, got.marks, full.marks)
		}
		if got.misses != 0 {
			t.Fatalf("point %d: %d misses on a deterministic workload", point, got.misses)
		}
	}

	// Point 2 fires in check#1: Add#1 is predicted, and Add#2/check#2 —
	// whose spans start after point 2 — unwind only because they were
	// widened.
	cfg := ledgerConfig()
	cfg.InjectionPoint = 2
	cfg.Predict = index
	want := []CallID{{"ledger.Add", 1}, {"ledger.check", 2}, {"ledger.Add", 2}}
	if got := observeLedger(t, cfg, false).calls; !reflect.DeepEqual(got, want) {
		t.Fatalf("point 2 marked %v, want %v", got, want)
	}

	cfg = ledgerConfig()
	cfg.Trigger = everyNth(3)
	full := observeLedger(t, cfg, false)
	cfg.Predict = IndexSpans([]Span{{Call: CallID{"ledger.Add", 1}, Enter: 99, Exit: 99}})
	if got := observeLedger(t, cfg, false); !reflect.DeepEqual(got.marks, full.marks) || got.misses != 0 {
		t.Fatalf("trigger session honoured Predict: %+v vs %+v", got.marks, full.marks)
	}
}

// TestPredictMissesCountDivergence: when the run diverges from the clean
// run the prediction was read off — here Add#1 now unwinds before any
// injection — the unsnapshotted calls that unwind count as misses and
// record no marks, which is what tells the campaign to redo the run.
func TestPredictMissesCountDivergence(t *testing.T) {
	clean := ledgerConfig()
	clean.RecordSpans = true
	cfg := ledgerConfig()
	cfg.InjectionPoint = 5
	cfg.Predict = IndexSpans(observeLedger(t, clean, false).spans)
	got := observeLedger(t, cfg, true)
	if got.misses != 2 {
		t.Fatalf("misses = %d, want 2 (Add#1 and check#1 unwound unpredicted)", got.misses)
	}
	cfg.Predict = nil
	full := observeLedger(t, cfg, true)
	if len(got.marks) != len(full.marks)-2 {
		t.Fatalf("diverged predicted run kept %d marks; the full run has %d", len(got.marks), len(full.marks))
	}
	for _, m := range got.marks {
		if !reflect.DeepEqual(m, full.marks[m.Seq-1]) {
			t.Fatalf("mark %+v differs from the full run's %+v", m, full.marks[m.Seq-1])
		}
	}
}

// TestPredictMissesCountDivergenceOblivious is
// TestPredictMissesCountDivergence under Oblivious: the diverging
// predicted pass counts the same misses and keeps the full run's other
// marks, and the injected exception stops at the same wrapper as in an
// unpredicted oblivious session. That holds also when the prediction
// wrongly settles the swallowing wrapper (Add#3, live when check#3's
// point 6 fires): its settled epilogue counts one more miss and swallows
// the exception there.
func TestPredictMissesCountDivergenceOblivious(t *testing.T) {
	clean := ledgerConfig()
	clean.RecordSpans = true
	spans := observeLedger(t, clean, false).spans
	wrong := slices.Clone(spans)
	for i := range wrong {
		if wrong[i].Call == (CallID{"ledger.Add", 3}) {
			wrong[i].Exit = wrong[i].Enter
		}
	}

	cfg := ledgerConfig()
	cfg.InjectionPoint = 6
	cfg.Predict = IndexSpans(spans)
	misses := observeLedger(t, cfg, true).misses

	cfg.Oblivious = true
	cfg.Predict = nil
	full, fullEscaped := observeEscapes(t, cfg)
	if want := []bool{true, true, false}; !reflect.DeepEqual(fullEscaped, want) {
		t.Fatalf("unpredicted oblivious session: escapes %v, want %v (check#3's injection swallowed by Add#3)", fullEscaped, want)
	}
	for _, c := range []struct {
		name   string
		index  *SpanIndex
		misses int
	}{
		{"clean spans", IndexSpans(spans), misses},
		{"Add#3 wrongly settled", IndexSpans(wrong), misses + 1},
	} {
		cfg.Predict = c.index
		got, escaped := observeEscapes(t, cfg)
		if got.misses != c.misses {
			t.Fatalf("%s: misses = %d, want %d", c.name, got.misses, c.misses)
		}
		if !reflect.DeepEqual(escaped, fullEscaped) {
			t.Fatalf("%s: escapes %v, unpredicted %v", c.name, escaped, fullEscaped)
		}
		if len(got.marks) != len(full.marks)-got.misses {
			t.Fatalf("%s: diverged predicted run kept %d marks; the full run has %d", c.name, len(got.marks), len(full.marks))
		}
		for _, m := range got.marks {
			if !reflect.DeepEqual(m, full.marks[m.Seq-1]) {
				t.Fatalf("%s: mark %+v differs from the full run's %+v", c.name, m, full.marks[m.Seq-1])
			}
		}
	}
	if misses != 2 {
		t.Fatalf("non-oblivious misses = %d, want 2 (Add#1 and check#1 unwound unpredicted)", misses)
	}
}

// observeEscapes runs the diverging ledger workload and reports, per Add
// call, whether an exception escaped it.
func observeEscapes(t *testing.T, cfg Config) (obs ledgerObservation, escaped []bool) {
	t.Helper()
	withSession(t, cfg, func(s *Session) {
		l := &ledger{}
		for _, fail := range []bool{true, true, false} {
			escaped = append(escaped, catchPanic(func() { l.Add(fail) }) != nil)
		}
		obs = ledgerObservation{s.Marks(), s.AppendMarkCalls(nil), nil, s.PredictMisses()}
	})
	return obs, escaped
}

// probe is a wrapped call that runs look, then inner, in its body.
type probe struct{ N int }

func (p *probe) Look(look, inner func()) {
	defer Enter(p, "probe.Look")()
	look()
	if inner != nil {
		inner()
	}
}

// sight is the frame stack depth and the roots free list length a probe's
// body saw: recorded outside the probe, so a rollback keeps it.
type sight struct{ frames, roots int }

// lookWorkload makes three Look calls of one point each: a (span [1, 1]),
// then b (span [2, 3]) around c (span [3, 3]).
func lookWorkload(s *Session) (a, b sight) {
	see := func(at *sight) func() {
		return func() { *at = sight{len(s.frames), len(s.rootsFree)} }
	}
	var c sight
	new(probe).Look(see(&a), nil)
	catchPanic(func() { new(probe).Look(see(&b), func() { new(probe).Look(see(&c), nil) }) })
	return a, b
}

// TestSettledCallsPushNoFrame: when point 3 fires, a predicted session
// settles a, whose span ended before it, so a's body runs with the frame
// stack and the roots free list as the prologue found them; b, live at
// point 3, pushes its frame. With masking, a's clean run was
// checkpointed, so it is settled too.
func TestSettledCallsPushNoFrame(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"detect", Config{Inject: true, Detect: true, RuntimeKinds: onePoint}},
		{"mask+detect", Config{Inject: true, Detect: true, RuntimeKinds: onePoint, Mask: true, MaskAll: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			clean := c.cfg
			clean.RecordSpans = true
			withSession(t, clean, func(s *Session) {
				lookWorkload(s) // leaves its roots on the free list
				cfg := c.cfg
				cfg.InjectionPoint, cfg.Predict = 3, IndexSpans(s.Spans())
				s.Reset(cfg)
				frames, roots := len(s.frames), len(s.rootsFree)
				if roots == 0 {
					t.Fatal("the clean run left no roots on the free list")
				}
				a, b := lookWorkload(s)
				if a != (sight{frames, roots}) {
					t.Errorf("settled call saw %+v, want %+v", a, sight{frames, roots})
				}
				if b.frames != frames+1 {
					t.Errorf("live call saw %d frames, want %d", b.frames, frames+1)
				}
				if len(s.frames) != 0 || s.PredictMisses() != 0 || len(s.Marks()) != 1 {
					t.Errorf("after the run: %d frames, %d misses, marks %+v; want 0, 0 and b's mark", len(s.frames), s.PredictMisses(), s.Marks())
				}
			})
		})
	}
}

// settledSession returns a session predicted from a clean run of n
// box.MutateByHandle calls, each counting one injection point, at a point
// past them all: its first n such calls after each Reset, on a goroutine
// it is bound to, are settled.
func settledSession(n int) (*Session, *bindBox) {
	box := &bindBox{}
	cfg := Config{Inject: true, Detect: true, RuntimeKinds: onePoint, RecordSpans: true}
	clean := NewSession(cfg)
	clean.Bind(func() {
		for range n {
			box.MutateByHandle(false)
		}
	})
	cfg.RecordSpans, cfg.InjectionPoint, cfg.Predict = false, n+1, IndexSpans(clean.Spans())
	return NewSession(cfg), box
}

// TestSettledPrologueAllocs guards the settled route: a bound, predicted
// session's settled calls allocate nothing, and take neither a roots
// slice nor a frame.
func TestSettledPrologueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	const n = 1000
	s, box := settledSession(n)
	var allocs float64
	s.Bind(func() {
		allocs = testing.AllocsPerRun(n-1, func() { box.MutateByHandle(false) })
	})
	if allocs > 0 {
		t.Fatalf("settled prologue = %.2f allocs per call; want 0", allocs)
	}
	if cap(s.frames) != 0 || len(s.rootsFree) != 0 {
		t.Fatalf("settled calls pushed frames (cap %d) or took roots (%d free)", cap(s.frames), len(s.rootsFree))
	}
	if got := s.Calls()["bindBox.Mutate"]; got != n {
		t.Fatalf("session counted %d calls, want %d", got, n)
	}
}

// captureCounter counts the checkpoints its strategy is asked to capture.
type captureCounter struct {
	checkpoint.Strategy
	n int
}

func (c *captureCounter) Capture(roots ...any) (checkpoint.Handle, error) {
	c.n++
	return c.Strategy.Capture(roots...)
}

// maskObservation is everything a masking session accounts for.
type maskObservation struct {
	marks             []Mark
	stats             map[string]MaskStat
	masked, rollbacks int64
	skips             []MaskSkip
	misses            int
}

func observeMasked(t *testing.T, cfg Config) maskObservation {
	t.Helper()
	var obs maskObservation
	withSession(t, cfg, func(s *Session) {
		ledgerWorkload(false)
		obs = maskObservation{s.Marks(), s.MaskStats(), s.MaskedCalls(), s.Rollbacks(), s.MaskSkips(), s.PredictMisses()}
	})
	return obs
}

// TestPredictedCheckpointsMatchEveryCall: at every threshold, a masking
// session predicted from a masking clean run's spans skips the checkpoints
// of the calls that cannot unwind, yet accounts exactly as an every-call
// session — marks, MaskStats (bytes from the clean run), masked calls and
// rollbacks. A call whose clean-run capture failed is captured again and
// records its MaskSkip.
func TestPredictedCheckpointsMatchEveryCall(t *testing.T) {
	for _, c := range []struct {
		name     string
		strategy checkpoint.Strategy
		failing  bool
	}{
		{"deepcopy", checkpoint.New(), false},
		{"failing", failingStrategy{}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			masking := func(point int) Config {
				cfg := ledgerConfig()
				cfg.InjectionPoint = point
				cfg.Mask, cfg.MaskAll, cfg.Strategy = true, true, c.strategy
				return cfg
			}
			clean := masking(0)
			clean.RecordSpans = true
			index := IndexSpans(observeLedger(t, clean, false).spans)
			predicted := &captureCounter{Strategy: c.strategy}
			full := &captureCounter{Strategy: c.strategy}
			for point := 1; point <= 7; point++ {
				cfg := masking(point)
				cfg.Strategy = full
				want := observeMasked(t, cfg)
				cfg.Predict, cfg.Strategy = index, predicted
				got := observeMasked(t, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("point %d: predicted session differs:\n got %+v\nwant %+v", point, got, want)
				}
				if c.failing && len(got.skips) == 0 {
					t.Fatalf("point %d: no MaskSkip recorded for the failing captures", point)
				}
			}
			if c.failing && predicted.n != full.n {
				t.Fatalf("predicted sessions captured %d checkpoints, every-call sessions %d; failed captures must be retried", predicted.n, full.n)
			}
			if !c.failing && predicted.n >= full.n {
				t.Fatalf("predicted sessions captured %d checkpoints, every-call sessions %d", predicted.n, full.n)
			}
		})
	}
}

// TestCleanCapturesOnlyLiveSpans: a fingerprint-mode clean run keeps the
// captured before-state, under the fingerprint it snapshotted, only on
// the spans some injection point can find live or unwound (Exit > Enter
// or Unwound); every other call is settled at every point, so its capture
// is dropped at exit. A capture-mode clean run keeps none.
func TestCleanCapturesOnlyLiveSpans(t *testing.T) {
	clean := ledgerConfig()
	clean.Snapshot, clean.RecordSpans = SnapshotFingerprint, true
	spans := observeLedger(t, clean, false).spans
	kept, dropped := 0, 0
	for _, sp := range spans {
		live := sp.Exit > sp.Enter || sp.Unwound
		if live != (sp.before != nil) {
			t.Fatalf("span %+v: live=%v but capture kept=%v", sp, live, sp.before != nil)
		}
		if sp.before == nil {
			dropped++
			continue
		}
		kept++
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("ledger run kept %d and dropped %d captures; want both", kept, dropped)
	}
	clean.Snapshot = SnapshotCapture
	for _, sp := range observeLedger(t, clean, false).spans {
		if sp.before != nil {
			t.Fatalf("capture-mode clean run kept a capture on %+v", sp)
		}
	}
}

// TestMarkDiffsMatchCapture: at every threshold, a predicted fingerprint
// session reads each non-atomic mark's path off the clean run's capture
// exactly as a capture session reports it, leaves atomic marks without
// one, and does not alter the marks themselves. A session without Predict
// records no MarkDiffs.
func TestMarkDiffsMatchCapture(t *testing.T) {
	clean := ledgerConfig()
	clean.Snapshot, clean.RecordSpans = SnapshotFingerprint, true
	index := IndexSpans(observeLedger(t, clean, false).spans)
	read := 0
	for point := 1; point <= 7; point++ {
		cfg := ledgerConfig()
		cfg.InjectionPoint = point
		want := observeLedger(t, cfg, false)
		cfg.Snapshot, cfg.Predict = SnapshotFingerprint, index
		var marks []Mark
		var diffs []string
		withSession(t, cfg, func(s *Session) {
			ledgerWorkload(false)
			marks, diffs = s.Marks(), s.AppendMarkDiffs(nil)
		})
		if len(diffs) != len(marks) || len(marks) != len(want.marks) {
			t.Fatalf("point %d: %d diffs for %d marks (capture %d)", point, len(diffs), len(marks), len(want.marks))
		}
		for i, m := range marks {
			if m.Diff != "" {
				t.Fatalf("point %d: the first-pass mark carries a Diff: %+v", point, m)
			}
			if diffs[i] == "" {
				continue
			}
			if m.Atomic || diffs[i] != want.marks[i].Diff {
				t.Fatalf("point %d: mark %d read %q off the clean run, capture says %+v", point, i, diffs[i], want.marks[i])
			}
			read++
		}
	}
	if read == 0 {
		t.Fatal("no diff was read off the clean run")
	}
	cfg := ledgerConfig()
	cfg.Snapshot, cfg.InjectionPoint = SnapshotFingerprint, 2
	withSession(t, cfg, func(s *Session) {
		ledgerWorkload(false)
		if len(s.Marks()) == 0 || s.AppendMarkDiffs(nil) != nil {
			t.Fatalf("unpredicted session: %d marks, MarkDiffs %v", len(s.Marks()), s.AppendMarkDiffs(nil))
		}
	})
}
