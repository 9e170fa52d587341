package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"failatomic/internal/checkpoint"
	"failatomic/internal/fault"
	"failatomic/internal/objgraph"
)

// Mark records one atomicity observation: a wrapped method returned with an
// exception and its before/after object graphs were compared (Listing 1,
// lines 10–14). Seq numbers are assigned callee-first as the exception
// unwinds, which implements §4.3's pure-vs-conditional ordering rule.
type Mark struct {
	// Method is the instrumentation name of the marked method.
	Method string
	// Seq is the callee-first order of this mark within the run (1 = the
	// first, i.e. deepest, method marked).
	Seq int
	// Atomic reports whether the before/after object graphs were equal.
	Atomic bool
	// Diff is the path to the first graph difference ("" when Atomic).
	Diff string
	// Exception is the exception that unwound through the method.
	Exception *fault.Exception
	// Masked reports whether the masking wrapper rolled the receiver back
	// before the comparison.
	Masked bool
}

// MaskSkip records a method whose checkpoint could not be captured or
// restored; the method then runs unmasked for that call.
type MaskSkip struct {
	Method string
	Err    error
}

// CallID identifies one wrapped call within a run: the instrumentation
// name and the 1-based per-method call ordinal. Over a deterministic
// workload the same call carries the same CallID in every execution, which
// is what lets a replay snapshot exactly the calls a first pass marked.
type CallID struct {
	Method string
	Call   int64
}

// PointInfo describes one potential injection point of a run: the
// instrumentation name it belongs to and the candidate exception kind. A
// traced clean run (Config.TracePoints) records one PointInfo per global
// counter increment, which is the profile perturbation strategies plan
// their experiment grids from.
type PointInfo struct {
	Method string
	Kind   fault.Kind
}

// Trigger generalizes injection-point firing beyond the paper's exact
// global-counter threshold. When Config.Trigger is set, ShouldFire is
// consulted once per potential injection point — after the session's
// global counter has been incremented — with the counter value, the
// instrumentation name, the candidate exception kind, and the 1-based
// per-(method, kind) activation ordinal. Returning true raises the
// injected exception at that point; unlike the threshold rule, a trigger
// may fire more than once per run (the burst perturbation model).
type Trigger interface {
	ShouldFire(point int, method string, kind fault.Kind, activation int) bool
}

// siteKey identifies one static injection site: an instrumentation name
// paired with a candidate exception kind.
type siteKey struct {
	method string
	kind   fault.Kind
}

// MaskStat aggregates the masking overhead observed for one method: how
// many calls were checkpointed, the checkpoint bytes captured, and how
// many rollbacks fired. The repair report groups these by assigned
// strategy to extend the paper's Figure 3/4 overhead story.
type MaskStat struct {
	Calls     int64 `json:"calls"`
	Bytes     int64 `json:"bytes"`
	Rollbacks int64 `json:"rollbacks"`
}

// Config selects the behaviors of a Session.
type Config struct {
	// Registry supplies per-method declared exception kinds. May be nil:
	// unregistered methods get only the runtime kinds.
	Registry *Registry
	// Inject enables injection-point counting; an exception is raised when
	// the counter reaches InjectionPoint (0 = count but never fire).
	Inject bool
	// InjectionPoint is the threshold of Listing 1.
	InjectionPoint int
	// Trigger, when non-nil, replaces the InjectionPoint threshold rule:
	// every potential injection point is offered to the trigger instead
	// (perturbation models beyond inject-at-the-first-activation). The
	// trigger may fire multiply per run; every raised exception is
	// recorded, and Injected() reports the first.
	Trigger Trigger
	// ExitFire, when non-nil, is consulted in the deferred epilogue of
	// every receiver-bearing instrumented call that is about to return
	// normally; call is the 1-based per-method call ordinal. Returning a
	// kind with fire=true raises an injected exception *after* the method
	// body completed — the deferred-cleanup perturbation model: the
	// wrapper's epilogue is exactly where a method's deferred cleanup
	// runs, so the fault strikes with the body's effects already applied.
	ExitFire func(method string, call int64) (fault.Kind, bool)
	// Oblivious makes exit handlers swallow injected exceptions after
	// recording their atomicity mark, instead of re-panicking: the
	// failure-oblivious perturbation model. The swallowing boundary is the
	// nearest receiver-bearing wrapper the exception unwinds into (its
	// method returns zero values and execution continues); organic and
	// foreign panics keep propagating.
	Oblivious bool
	// TracePoints records one PointInfo per global counter increment,
	// retrievable via PointTrace — the clean-run profile perturbation
	// strategies plan from. Off by default (the trace allocates).
	TracePoints bool
	// Detect enables object-graph snapshots and marking (Listing 1).
	Detect bool
	// Snapshot selects how before-states are summarized when Detect is
	// on: SnapshotFingerprint (the zero value) compares streaming graph
	// hashes (one objgraph.Fingerprint per snapshot) and leaves
	// Mark.Diff empty; SnapshotCapture materializes full graphs and
	// reports the first-difference path.
	Snapshot SnapshotMode
	// DiffCalls, when non-nil, restricts Detect snapshots to the listed
	// calls (targeted diff recovery: a capture-mode replay pays for graphs
	// only where a first pass marked a non-atomic call). Every other
	// receiver-bearing call still installs its exit handler, so Seq
	// numbering, ExitFire and the Oblivious swallow boundary are exactly
	// those of an untargeted session; it records no mark of its own. Nil
	// means every call (unless Predict narrows the set).
	DiffCalls map[CallID]bool
	// Predict, when non-nil, restricts the Detect snapshots of a threshold
	// session (Detect on, no Trigger, no ExitFire; ignored otherwise) to
	// the calls an exception injected at InjectionPoint can unwind, read
	// off a clean run's spans (see SpanIndex). Once an exception has been
	// injected, every call entered afterwards is snapshotted.
	// Unsnapshotted calls behave as calls outside DiffCalls; one that
	// unwinds anyway counts a miss (PredictMisses), and the run must be
	// redone unpredicted.
	//
	// The same calls skip their masking checkpoint when the clean run
	// captured one: such a call returns normally, so its checkpoint would
	// only be committed, and it counts as masked with the clean run's
	// checkpoint bytes. Up to the injection the run is the clean run, so
	// MaskedCalls and MaskStats equal those of an every-call session; a
	// call whose clean-run capture failed is captured (and fails) again.
	Predict *SpanIndex
	// RecordSpans records one Span per receiver-bearing call under Detect
	// (Spans): the clean run's input to Predict.
	RecordSpans bool
	// Mask enables checkpoint/rollback for the methods in MaskMethods (or
	// all methods when MaskAll).
	Mask bool
	// MaskAll masks every instrumented method with a receiver.
	MaskAll bool
	// MaskMethods lists methods to mask (Step 5's corrected program wraps
	// only the failure non-atomic methods).
	MaskMethods map[string]bool
	// Strategy is the checkpoint strategy; nil means checkpoint.DeepCopy.
	Strategy checkpoint.Strategy
	// ExceptionFree lists methods the programmer asserts never throw
	// (§4.3); the injector skips their injection points.
	ExceptionFree map[string]bool
	// RuntimeKinds overrides the generic undeclared kinds injected into
	// every method; nil means fault.RuntimeKinds().
	RuntimeKinds []fault.Kind
	// Serialize makes each instrumented call hold a session-global lock
	// for its whole duration — the paper's §4.4 mitigation for
	// multi-threaded programs ("restricting the amount of parallelism and
	// enforcing restrictive concurrency control policies"). Snapshots,
	// comparisons and rollbacks then never race with other instrumented
	// calls. Point numbering across goroutines still depends on the
	// scheduler, so campaigns over concurrent workloads may emit
	// nondeterminism warnings.
	Serialize bool
}

// Session is one configured run of an instrumented program. Sessions are
// exclusive (the paper's system is single-threaded, §4.4): Install fails if
// another session is active.
type Session struct {
	cfg          Config
	runtimeKinds []fault.Kind
	strategy     checkpoint.Strategy
	// serial is held for the duration of each instrumented call when
	// Serialize is set (reentrant, so nested wrapped calls on the owning
	// goroutine proceed).
	serial reentrantLock

	// perturbed caches "Trigger or TracePoints is set" so the per-point
	// hot loop pays one predictable branch for the legacy threshold rule.
	perturbed bool

	point       int
	injected    []*fault.Exception
	activations map[siteKey]int
	trace       []PointInfo
	seq         int
	marks       []Mark
	markCalls   []CallID
	spans       []Span
	openSpans   []int // indexes into spans of the calls not yet exited
	misses      int
	calls       map[string]int64
	maskSkips   []MaskSkip
	masked      int64
	restored    int64
	maskStats   map[string]*MaskStat

	// rootsFree is a LIFO free-list of roots scratch slices. Wrapped calls
	// nest (each exit handler is deferred), so the innermost call returns
	// its slice before the outer one finishes — a stack matches the
	// lifetime exactly and keeps the detect prologue allocation-free after
	// the first call at each nesting depth. Guarded by the same
	// single-goroutine (or Serialize-lock) discipline as s.calls.
	rootsFree [][]any
}

// NewSession returns a session with the given configuration.
func NewSession(cfg Config) *Session {
	kinds := cfg.RuntimeKinds
	if kinds == nil {
		kinds = fault.RuntimeKinds()
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = checkpoint.DeepCopy()
	}
	s := &Session{
		cfg:          cfg,
		runtimeKinds: kinds,
		strategy:     strategy,
		calls:        make(map[string]int64),
		perturbed:    cfg.Trigger != nil || cfg.TracePoints,
	}
	if cfg.Trigger != nil {
		s.activations = make(map[siteKey]int)
	}
	if cfg.Trigger != nil || cfg.ExitFire != nil || !cfg.Detect {
		// The span argument covers one injection at the threshold point;
		// multi-fire triggers and epilogue faults snapshot every call. A
		// miss is counted by the Detect epilogue, so a session without
		// Detect checkpoints every call.
		s.cfg.Predict = nil
	}
	return s
}

// Point returns the current value of the global injection-point counter.
func (s *Session) Point() int { return s.point }

// Injected returns the first exception injected in this run, or nil.
func (s *Session) Injected() *fault.Exception {
	if len(s.injected) == 0 {
		return nil
	}
	return s.injected[0]
}

// InjectedAll returns every exception injected in this run, in firing
// order. Only multi-fire triggers (the burst perturbation model) produce
// more than one.
func (s *Session) InjectedAll() []*fault.Exception { return s.injected }

// PointTrace returns the per-point (method, kind) trace recorded when
// Config.TracePoints is set; nil otherwise.
func (s *Session) PointTrace() []PointInfo { return s.trace }

// Marks returns the atomicity observations recorded so far.
func (s *Session) Marks() []Mark { return s.marks }

// MarkCalls returns the call identity of each mark, index-aligned with
// Marks. It is session-side bookkeeping for diff recovery and is never
// part of a Mark, so journals and logs do not carry it.
func (s *Session) MarkCalls() []CallID { return s.markCalls }

// Spans returns the call spans recorded under Config.RecordSpans, in entry
// order; nil otherwise.
func (s *Session) Spans() []Span { return s.spans }

// PredictMisses returns how many calls unwound without a snapshot because
// Config.Predict excluded them. Non-zero means the run diverged from the
// clean run the prediction was read off, and its marks are incomplete.
func (s *Session) PredictMisses() int { return s.misses }

// Calls returns the per-method call counts.
func (s *Session) Calls() map[string]int64 { return s.calls }

// MaskSkips returns methods whose checkpoints failed.
func (s *Session) MaskSkips() []MaskSkip { return s.maskSkips }

// MaskedCalls returns how many calls were checkpointed.
func (s *Session) MaskedCalls() int64 { return s.masked }

// Rollbacks returns how many checkpoints were rolled back.
func (s *Session) Rollbacks() int64 { return s.restored }

// MaskStats returns the per-method masking overhead, or nil when no call
// was masked.
func (s *Session) MaskStats() map[string]MaskStat {
	if len(s.maskStats) == 0 {
		return nil
	}
	out := make(map[string]MaskStat, len(s.maskStats))
	for name, st := range s.maskStats {
		out[name] = *st
	}
	return out
}

// noteMask records one masked call's overhead. Checkpoint bytes must be
// read before rollback (journals clear on restore).
func (s *Session) noteMask(name string, bytes int, rolledBack bool) {
	if s.maskStats == nil {
		s.maskStats = make(map[string]*MaskStat)
	}
	st := s.maskStats[name]
	if st == nil {
		st = &MaskStat{}
		s.maskStats[name] = st
	}
	st.Calls++
	st.Bytes += int64(bytes)
	if rolledBack {
		st.Rollbacks++
	}
}

// _active holds the installed global session. Instrumented prologues fall
// back to it when the calling goroutine has no scoped binding (see
// bind.go); nil means calls from unbound goroutines are no-ops. This is
// deliberate ambient state — the same role as the bytecode-woven wrappers'
// global Point counter in the paper — and is guarded for exclusive use.
var _active atomic.Pointer[Session]

// ErrSessionActive is returned by Install when a session is already
// installed.
var ErrSessionActive = errors.New("core: another session is already installed")

// Install makes s the active global session. It fails if another global
// session is installed; goroutine-scoped sessions (Session.Bind) are not
// subject to this exclusivity and may coexist with the global.
func Install(s *Session) error {
	if s == nil {
		return errors.New("core: cannot install nil session")
	}
	if !_active.CompareAndSwap(nil, s) {
		return ErrSessionActive
	}
	activity.Add(1)
	return nil
}

// Uninstall removes s if it is the active global session.
func Uninstall(s *Session) {
	if _active.CompareAndSwap(s, nil) {
		activity.Add(-1)
	}
}

// Active returns the installed global session, or nil. It ignores
// goroutine-scoped bindings; see Current for the session a call on this
// goroutine would actually use.
func Active() *Session { return _active.Load() }

// nop is the shared prologue epilogue for uninstrumented runs.
func nop() {}

// Enter is the woven prologue. recv is the method receiver (nil for
// constructors and free functions); name is the instrumentation name; extra
// lists by-reference arguments that belong to the compared object graph
// ("all arguments that are passed in as non-constant references", §4.1).
//
// The returned closure must be deferred by the caller:
//
//	defer core.Enter(l, "LinkedList.InsertAt")()
//
// Injection happens during Enter itself — before the closure is deferred —
// so an injected exception propagates to the *caller's* wrapper without
// executing the method body, exactly like Listing 1 where the injection
// points precede the try block.
func Enter(recv any, name string, extra ...any) func() {
	// Fast path: one atomic load covers "no global session and no scoped
	// binding anywhere", so uninstrumented production calls stay no-ops at
	// the pre-binding cost.
	if activity.Load() == 0 {
		return nop
	}
	s := Current()
	if s == nil {
		return nop
	}
	return s.enter(recv, name, extra)
}

// enter builds the method epilogue. Because recover only works when called
// directly from the deferred function, enterWork returns an exit handler
// taking the recovered value, and enter wraps it into the actual deferred
// closure (optionally bracketed by the serialization lock).
func (s *Session) enter(recv any, name string, extra []any) func() {
	if !s.cfg.Serialize {
		exit := s.enterWork(recv, name, extra)
		if exit == nil {
			return nop
		}
		return func() { exit(recover()) }
	}
	// Serialized mode: hold the (reentrant) session lock for the whole
	// instrumented call. An injected exception leaves enterWork before the
	// epilogue is deferred, so the guard releases the lock on that path;
	// otherwise the returned closure releases it after the exit handler,
	// even when the handler re-panics.
	s.serial.Lock()
	exit := func() func(any) {
		defer func() {
			if r := recover(); r != nil {
				s.serial.Unlock()
				panic(r)
			}
		}()
		return s.enterWork(recv, name, extra)
	}()
	return func() {
		defer s.serial.Unlock()
		r := recover()
		if exit != nil {
			exit(r)
		} else if r != nil {
			panic(r)
		}
	}
}

// enterWork performs the prologue work (counting, injection, checkpoint,
// snapshot) and returns the exit handler, or nil when nothing needs to
// happen at method exit. The handler re-panics when passed a non-nil
// recovered value.
func (s *Session) enterWork(recv any, name string, extra []any) func(any) {
	call := s.calls[name] + 1
	s.calls[name] = call

	if s.cfg.Inject && !s.cfg.ExceptionFree[name] {
		info := s.cfg.Registry.Info(name)
		if info != nil {
			for _, kind := range info.Declared {
				s.point++
				if s.perturbed {
					s.advancePerturbed(kind, name)
				} else if s.point == s.cfg.InjectionPoint {
					s.inject(kind, name)
				}
			}
		}
		for _, kind := range s.runtimeKinds {
			s.point++
			if s.perturbed {
				s.advancePerturbed(kind, name)
			} else if s.point == s.cfg.InjectionPoint {
				s.inject(kind, name)
			}
		}
	}

	if recv == nil {
		return nil
	}

	maskWanted := s.cfg.Mask && (s.cfg.MaskAll || s.cfg.MaskMethods[name])
	if !maskWanted && !s.cfg.Detect {
		return nil
	}

	roots := s.getRoots(1 + len(extra))
	roots = append(roots, recv)
	roots = append(roots, extra...)

	// predicted: the clean run's spans rule out that this call unwinds
	// (Config.Predict), so it needs neither a snapshot nor a checkpoint.
	// If it unwinds anyway, the Detect epilogue counts a miss.
	id := CallID{name, call}
	var clean Span
	predicted := false
	if s.cfg.Predict != nil && len(s.injected) == 0 && (s.cfg.DiffCalls == nil || s.cfg.DiffCalls[id]) {
		clean, predicted = s.cfg.Predict.settled(id, s.cfg.InjectionPoint)
	}

	var handle checkpoint.Handle
	switch {
	case !maskWanted:
	case predicted && clean.checkpointed:
		s.masked++
		s.noteMask(name, clean.bytes, false)
	default:
		h, err := s.strategy.Capture(roots...)
		if err != nil {
			s.maskSkips = append(s.maskSkips, MaskSkip{Method: name, Err: err})
		} else {
			handle = h
			s.masked++
		}
	}

	var before *objgraphSnapshot
	var beforeFP objgraph.FP
	fingerprinted := false
	if s.cfg.Detect {
		switch {
		case s.cfg.DiffCalls != nil && !s.cfg.DiffCalls[id]:
		case predicted:
		case s.cfg.Snapshot == SnapshotFingerprint:
			beforeFP = objgraph.Fingerprint(roots...)
			fingerprinted = true
		default:
			before = snapshot(roots)
		}
	}

	if handle == nil && !s.cfg.Detect && s.cfg.ExitFire == nil {
		s.putRoots(roots)
		return nil
	}

	if s.cfg.RecordSpans {
		s.openSpans = append(s.openSpans, len(s.spans))
		s.spans = append(s.spans, Span{Call: id, Enter: s.point, Exit: math.MaxInt})
	}

	return func(r any) {
		if r == nil && s.cfg.ExitFire != nil {
			// Deferred-cleanup injection: the body completed; the fault
			// strikes in the epilogue — the method's cleanup phase — and
			// takes the exceptional path below with the body's effects
			// already applied to the object graph.
			if kind, fire := s.cfg.ExitFire(name, call); fire {
				exc := fault.New(kind, name, s.point)
				s.injected = append(s.injected, exc)
				r = exc
			}
		}
		if s.cfg.RecordSpans {
			// Exit handlers run innermost first, so the exiting call is the
			// most recently entered open span.
			last := len(s.openSpans) - 1
			sp := &s.spans[s.openSpans[last]]
			s.openSpans = s.openSpans[:last]
			sp.Exit = s.point
			sp.Unwound = r != nil
			if handle != nil && r == nil {
				sp.checkpointed, sp.bytes = true, handle.Bytes()
			}
		}
		if r == nil {
			if handle != nil {
				s.noteMask(name, handle.Bytes(), false)
			}
			if c, ok := handle.(checkpoint.Committer); ok {
				c.Commit()
			}
			s.putRoots(roots)
			return
		}
		rolledBack := false
		if handle != nil {
			// Read the checkpoint size before rollback clears the journal.
			bytes := handle.Bytes()
			if err := handle.Rollback(); err != nil {
				s.maskSkips = append(s.maskSkips, MaskSkip{
					Method: name,
					Err:    fmt.Errorf("rollback: %w", err),
				})
			} else {
				s.restored++
				rolledBack = true
			}
			s.noteMask(name, bytes, rolledBack)
		}
		if fingerprinted {
			// Fingerprint mode records the verdict but no diff path; the
			// campaign driver recovers Diff for non-atomic marks by
			// replaying the run with capture snapshots at exactly those
			// calls (deterministic replay, matched back by Seq).
			s.seq++
			s.marks = append(s.marks, Mark{
				Method:    name,
				Seq:       s.seq,
				Atomic:    objgraph.Fingerprint(roots...) == beforeFP,
				Exception: fault.From(r),
				Masked:    rolledBack,
			})
			s.markCalls = append(s.markCalls, CallID{name, call})
		} else if before != nil {
			after := snapshot(roots)
			diff := before.diff(after)
			s.seq++
			s.marks = append(s.marks, Mark{
				Method:    name,
				Seq:       s.seq,
				Atomic:    diff == "",
				Diff:      diff,
				Exception: fault.From(r),
				Masked:    rolledBack,
			})
			s.markCalls = append(s.markCalls, CallID{name, call})
		} else if s.cfg.Detect {
			// A call outside DiffCalls or the prediction: no snapshot, no
			// mark, but it consumes its Seq exactly as in an untargeted
			// pass, so the other marks keep their numbering.
			s.seq++
			if s.cfg.Predict != nil && (s.cfg.DiffCalls == nil || s.cfg.DiffCalls[CallID{name, call}]) {
				// Only the prediction can have excluded this call, and it
				// unwound anyway: the run diverged from its clean run.
				s.misses++
			}
		}
		s.putRoots(roots)
		if s.cfg.Oblivious {
			// Failure-oblivious mode: the mark is recorded, then the
			// injected exception stops here — this wrapper is the handler
			// boundary; its method returns zero values and the workload
			// continues (organic and foreign panics still propagate).
			if exc, ok := r.(*fault.Exception); ok && exc.Injected {
				return
			}
		}
		panic(r)
	}
}

// advancePerturbed handles one potential injection point when a trigger
// or point tracing is active (the non-threshold slow path; s.point has
// already been incremented).
func (s *Session) advancePerturbed(kind fault.Kind, name string) {
	if s.cfg.TracePoints {
		s.trace = append(s.trace, PointInfo{Method: name, Kind: kind})
	}
	if s.cfg.Trigger == nil {
		if s.point == s.cfg.InjectionPoint {
			s.inject(kind, name)
		}
		return
	}
	site := siteKey{method: name, kind: kind}
	s.activations[site]++
	if s.cfg.Trigger.ShouldFire(s.point, name, kind, s.activations[site]) {
		s.inject(kind, name)
	}
}

// getRoots pops a scratch slice with capacity for n roots off the
// session free-list, or allocates one.
func (s *Session) getRoots(n int) []any {
	if k := len(s.rootsFree); k > 0 {
		r := s.rootsFree[k-1]
		s.rootsFree = s.rootsFree[:k-1]
		if cap(r) >= n {
			return r
		}
	}
	return make([]any, 0, n)
}

// putRoots clears a scratch slice (dropping its references) and pushes it
// back on the free-list.
func (s *Session) putRoots(r []any) {
	clear(r)
	s.rootsFree = append(s.rootsFree, r[:0])
}

// inject raises an injected exception at the current point (Listing 1,
// lines 2–5).
func (s *Session) inject(kind fault.Kind, name string) {
	exc := fault.New(kind, name, s.point)
	s.injected = append(s.injected, exc)
	panic(exc)
}
