package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// MethodStat is one method's masking overhead, keyed by its handle.
type MethodStat struct {
	Method *MethodHandle
	MaskStat
}

// MaskTotals sums masking overhead over runs without naming a method:
// entry i belongs to the method handle with id i (Method is nil where
// nothing was added for it). Names are looked up once, by Named.
type MaskTotals []MethodStat

// Add adds each entry of stats (a run's AppendMaskStats, or other
// MaskTotals) to t.
func (t *MaskTotals) Add(stats []MethodStat) {
	for _, st := range stats {
		if st.Method == nil {
			continue
		}
		id := int(st.Method.id)
		if id >= len(*t) {
			*t = append(*t, make([]MethodStat, id+1-len(*t))...)
		}
		e := &(*t)[id]
		e.Method = st.Method
		e.Calls += st.Calls
		e.Bytes += st.Bytes
		e.Rollbacks += st.Rollbacks
	}
}

// Named returns the totals by method name, or nil when there are none.
func (t MaskTotals) Named() map[string]MaskStat {
	var out map[string]MaskStat
	for _, st := range t {
		if st.Method == nil {
			continue
		}
		if out == nil {
			out = make(map[string]MaskStat)
		}
		out[st.Method.name] = st.MaskStat
	}
	return out
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
	// Unsnapshotted calls consume their Seq and keep the Oblivious
	// boundary as calls outside DiffCalls do; one that unwinds anyway
	// counts a miss (PredictMisses), and the run must be redone
	// unpredicted. A settled call (unsnapshotted, and needing no
	// checkpoint of its own; see below) pushes no frame and takes no
	// roots: its epilogue only recovers, and acts on an unwind, unless
	// the session records spans or serializes calls.
	//
	// The same calls skip their masking checkpoint when the clean run
	// captured one: such a call returns normally, so its checkpoint would
	// only be committed, and it counts as masked with the clean run's
	// checkpoint bytes. Up to the injection the run is the clean run, so
	// MaskedCalls and MaskStats equal those of an every-call session; a
	// call whose clean-run capture failed is captured (and fails) again.
	//
	// Under fingerprint snapshots, a call entered before the injection at
	// the point where the clean run entered it takes the clean run's
	// before-fingerprint instead of hashing its roots, and, if it unwinds
	// again before the injection at the point where the clean run's call
	// unwound, the clean run's after-fingerprint too: up to the injection
	// the run is the clean run. A call at any other point hashes, and counts
	// no miss; so does every call under Serialize. A non-atomic mark whose call entered from the clean run's
	// before-fingerprint also reads its diff path off the clean run's
	// capture (MarkDiffs).
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
	// Strategy, when non-nil, replaces the session's own checkpoint.New:
	// the seam through which tests count or fail captures.
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
	//
	// Without Serialize a session must be used by one goroutine at a time:
	// the exit state of its open calls is one LIFO frame stack, and its
	// per-method call counts and masking statistics sit in unsynchronized
	// per-method slots.
	Serialize bool
}

// defaultRuntimeKinds is fault.RuntimeKinds(), shared read-only by every
// session whose Config.RuntimeKinds is nil.
var defaultRuntimeKinds = fault.RuntimeKinds()

// Session is one configured run of an instrumented program. Sessions are
// exclusive (the paper's system is single-threaded, §4.4): Install fails if
// another session is active. Reset readies a session for another run, so
// a campaign worker keeps one session for all of its runs.
type Session struct {
	cfg          Config
	runtimeKinds []fault.Kind
	strategy     checkpoint.Strategy
	// ownStrategy is the checkpoint.New the session uses when
	// Config.Strategy is nil, kept across Reset with its free lists.
	ownStrategy checkpoint.Strategy
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
	markDiffs   []string
	spans       []Span
	// spanFree is the span buffer Reclaim handed back, emptied, for the
	// next span-recording run.
	spanFree  []Span
	misses    int
	maskSkips []MaskSkip
	masked    int64
	restored  int64

	// fingerprints counts the objgraph fingerprints the run took (before-
	// and after-states), the snapshot work a predicted run reuses from its
	// clean run.
	fingerprints int

	// slots holds the state of each method the session has called, in
	// first-call order; ids maps a method handle's id (methods.go) to 1 +
	// its slot's index, 0 before its first call. So a session keeps room
	// for the methods it calls, not for every handle of the process. A
	// slot is current when its gen is the session's gen, which Reset
	// advances.
	ids   []int32
	slots []method
	gen   uint64

	// frames holds the exit state of each open call whose prologue needs
	// an epilogue, innermost last. Wrapped calls nest (each epilogue is
	// deferred), so the exiting call is always the top frame. rootsFree is
	// a LIFO free-list of roots scratch slices with the same lifetime.
	// Reusing both keeps the prologue allocation-free after the first call
	// at each nesting depth. They assume the single-goroutine (or
	// Serialize-lock) discipline documented on Config.Serialize.
	frames    []frame
	rootsFree [][]any

	// graphs is the walker every objgraph traversal of the session runs
	// on, and the free list that the clean captures of calls settled at
	// one point are released into (see epilogue) and later captures
	// draw from. It is kept across Reset, under the same discipline as
	// frames. Only Detect runs traverse graphs, so it is
	// nil until the first one: a masking-only session stays small.
	graphs *objgraph.Scratch

	// exitFn is the one deferred epilogue Enter hands out for every call
	// that pushed a frame: exitPlain (s.exit), or exitSerial
	// (s.exitSerialized) under Serialize. exitSettledFn (s.exitSettled)
	// is the epilogue of a settled call, which pushed none. unlockFn
	// releases the Serialize lock of a call that pushed none. All are
	// method values built once per session, so deferring them allocates
	// nothing.
	exitFn        func()
	exitPlain     func()
	exitSerial    func()
	exitSettledFn func()
	unlockFn      func()
}

// frame is one open call's exit state: what its epilogue needs from its
// prologue.
type frame struct {
	method        *MethodHandle
	fingerprinted bool
	// predicted: Config.Predict ruled out that the call unwinds, so it
	// took no snapshot; unwinding anyway is a miss. reused: beforeFP is
	// the clean run's (Config.Predict), so the after-fingerprint may be
	// too.
	predicted bool
	reused    bool
	call      int64 // per-method call ordinal
	roots     []any
	handle    checkpoint.Handle
	// before is the call's captured before-state: the snapshot of a
	// capture-mode call, or, for a fingerprinted call of a span-recording
	// run, the clean capture the epilogue keeps in the call's span or
	// releases.
	before   *objgraph.Graph
	beforeFP objgraph.FP
	span     int // index into spans under RecordSpans
}

// NewSession returns a session with the given configuration.
func NewSession(cfg Config) *Session {
	s := &Session{}
	s.exitPlain = s.exit
	s.exitSerial = s.exitSerialized
	s.exitSettledFn = s.exitSettled
	s.unlockFn = s.serial.Unlock
	s.Reset(cfg)
	return s
}

// Reset readies the session for a new run under cfg: afterwards it
// observes exactly what NewSession(cfg) would. It keeps only buffers that
// never leave the session: the frame stack, the roots scratch, the mark
// buffers (Marks hands out a copy, and the Append getters copy into the
// caller's buffer), the method slots (counters restart at zero) with
// the facts resolved into them while cfg's Inject, Registry,
// ExceptionFree, Mask, MaskAll and MaskMethods are those of the previous
// run (the same switches, and the same registry and maps by identity, so
// a caller must pass a new map, not edit the old one in place, to change
// them), the objgraph walker with its free list of released
// clean-capture nodes, a span buffer that Reclaim handed back, and, when
// cfg.Strategy is nil, its own checkpoint strategy with that strategy's
// free lists.
// Everything the getters handed out for the previous run (Marks' copy,
// Spans, InjectedAll, PointTrace, MaskSkips, and the maps Calls and
// MaskStats build) is detached, never truncated, so it stays valid; Spans
// stays valid until it is handed to Reclaim. No call of the previous run
// may still be open on another goroutine: a session whose run was
// abandoned mid-call must be dropped, not reset.
func (s *Session) Reset(cfg Config) {
	kinds := cfg.RuntimeKinds
	if kinds == nil {
		kinds = defaultRuntimeKinds
	}
	strategy := cfg.Strategy
	if strategy == nil {
		if s.ownStrategy == nil {
			s.ownStrategy = checkpoint.New()
		}
		strategy = s.ownStrategy
	}
	if cfg.Detect && s.graphs == nil {
		s.graphs = new(objgraph.Scratch)
	}
	if cfg.Trigger != nil || cfg.ExitFire != nil || !cfg.Detect {
		// The span argument covers one injection at the threshold point;
		// multi-fire triggers and epilogue faults snapshot every call. A
		// miss is counted by the Detect epilogue, so a session without
		// Detect checkpoints every call.
		cfg.Predict = nil
	}
	if !sameFacts(&s.cfg, &cfg) {
		// The slots' facts are stale: drop the slots, and each method
		// resolves its facts again as its first call adds its slot.
		clear(s.ids)
		s.slots = truncate(s.slots)
	}
	s.cfg = cfg
	s.runtimeKinds = kinds
	s.strategy = strategy
	s.perturbed = cfg.Trigger != nil || cfg.TracePoints
	s.exitFn = s.exitPlain
	if cfg.Serialize {
		s.exitFn = s.exitSerial
	}

	s.point, s.seq, s.misses, s.masked, s.restored, s.fingerprints = 0, 0, 0, 0, 0, 0
	s.injected, s.trace, s.spans, s.maskSkips = nil, nil, nil, nil
	if cfg.RecordSpans {
		s.spans, s.spanFree = s.spanFree, nil
	}
	s.marks, s.markCalls, s.markDiffs = truncate(s.marks), truncate(s.markCalls), truncate(s.markDiffs)
	clear(s.activations)
	// A run that was cut short can leave frames open; drop their roots
	// and handles.
	s.frames = truncate(s.frames)

	s.gen++
	for call := range cfg.DiffCalls {
		s.state(Method(call.Method)).diff = true
	}
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

// Marks returns a copy of the atomicity observations recorded so far, or
// nil when there are none.
func (s *Session) Marks() []Mark { return detach(s.marks) }

// AppendMarkCalls appends the call identity of each mark, index-aligned
// with Marks, to dst and returns the extended slice (nil when both are
// empty). It is session-side bookkeeping for diff recovery and is never
// part of a Mark, so journals and logs do not carry it.
func (s *Session) AppendMarkCalls(dst []CallID) []CallID { return append(dst, s.markCalls...) }

// AppendMarkDiffs appends, index-aligned with Marks, the diff path of each
// non-atomic mark that a predicted fingerprint session read off the clean
// run's capture of the call (see Config.Predict), "" where it could not,
// to dst and returns the extended slice. Every other session appends
// nothing. Like AppendMarkCalls it is session-side bookkeeping: the marks
// themselves keep Diff empty.
func (s *Session) AppendMarkDiffs(dst []string) []string { return append(dst, s.markDiffs...) }

// detach returns an exact-size copy of a buffer the session keeps across
// Reset, or nil when it is empty.
func detach[T any](buf []T) []T {
	if len(buf) == 0 {
		return nil
	}
	out := make([]T, len(buf))
	copy(out, buf)
	return out
}

// truncate empties a buffer the session keeps across Reset, dropping
// what its elements point to.
func truncate[T any](buf []T) []T {
	clear(buf)
	return buf[:0]
}

// Spans returns the call spans recorded under Config.RecordSpans, in entry
// order; nil otherwise.
func (s *Session) Spans() []Span { return s.spans }

// Reclaim takes back a span-recording run of this session once nothing
// reads it: the clean captures its spans keep go to the session's free
// list, which later captures draw from, and the spans' buffer becomes the
// next span-recording run's. spans is what Spans returned for that run; a
// SpanIndex built from them shares the captures, so neither the spans nor
// such an index may be read afterwards, and no session predicting from
// the index may still be running.
func (s *Session) Reclaim(spans []Span) {
	for i := range spans {
		if b := spans[i].before; b != nil {
			s.graphs.Release(b.graph)
		}
	}
	clear(spans)
	s.spanFree = spans[:0]
}

// PredictMisses returns how many calls unwound without a snapshot because
// Config.Predict excluded them. Non-zero means the run diverged from the
// clean run the prediction was read off, and its marks are incomplete.
func (s *Session) PredictMisses() int { return s.misses }

// Calls returns the per-method call counts, in a map built on each call.
func (s *Session) Calls() map[string]int64 {
	out := make(map[string]int64)
	for i := range s.slots {
		if m := &s.slots[i]; m.gen == s.gen && m.calls > 0 {
			out[m.h.name] = m.calls
		}
	}
	return out
}

// MaskSkips returns methods whose checkpoints failed.
func (s *Session) MaskSkips() []MaskSkip { return s.maskSkips }

// MaskedCalls returns how many calls were checkpointed.
func (s *Session) MaskedCalls() int64 { return s.masked }

// Rollbacks returns how many checkpoints were rolled back.
func (s *Session) Rollbacks() int64 { return s.restored }

// MaskStats returns the per-method masking overhead, or nil when no call
// was masked.
func (s *Session) MaskStats() map[string]MaskStat {
	var out map[string]MaskStat
	for i := range s.slots {
		if m := &s.slots[i]; m.gen == s.gen && m.stat.Calls > 0 {
			if out == nil {
				out = make(map[string]MaskStat)
			}
			out[m.h.name] = m.stat
		}
	}
	return out
}

// AppendMaskStats appends the per-method masking overhead of the run, one
// entry for each method with a masked call, to dst and returns the
// extended slice: MaskStats without building a map.
func (s *Session) AppendMaskStats(dst []MethodStat) []MethodStat {
	for i := range s.slots {
		if m := &s.slots[i]; m.gen == s.gen && m.stat.Calls > 0 {
			dst = append(dst, MethodStat{Method: m.h, MaskStat: m.stat})
		}
	}
	return dst
}

// noteMask records one masked call of method h. Checkpoint bytes must be
// read before rollback (journals clear on restore).
func (s *Session) noteMask(h *MethodHandle, bytes int, rolledBack bool) {
	st := &s.slots[s.ids[h.id]-1].stat
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

// Enter is the woven prologue of method h. recv is the method receiver
// (nil for constructors and free functions); extra lists by-reference
// arguments that belong to the compared object graph ("all arguments that
// are passed in as non-constant references", §4.1).
//
// The returned function must be deferred by the caller:
//
//	defer mInsertAt.Enter(l)()
//
// Injection happens during Enter itself — before the epilogue is deferred —
// so an injected exception propagates to the *caller's* wrapper without
// executing the method body, exactly like Listing 1 where the injection
// points precede the try block.
func (h *MethodHandle) Enter(recv any, extra ...any) func() {
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
	return s.enter(h, recv, extra)
}

// Enter is the prologue by name, for woven code and callers without a
// handle: Method(name).Enter(recv, extra...), with the name interned only
// when some session is active.
//
//	defer core.Enter(l, "LinkedList.InsertAt")()
func Enter(recv any, name string, extra ...any) func() {
	if activity.Load() == 0 {
		return nop
	}
	return Method(name).Enter(recv, extra...)
}

// enter runs the prologue and returns the deferred epilogue enterWork
// picked, or nop when the call needs none.
func (s *Session) enter(h *MethodHandle, recv any, extra []any) func() {
	if s.cfg.Serialize {
		return s.enterSerialized(h, recv, extra)
	}
	if exit := s.enterWork(h, recv, extra); exit != nil {
		return exit
	}
	return nop
}

// enterSerialized is enter under Config.Serialize: the (reentrant) session
// lock is held for the whole instrumented call. An injected exception
// leaves enterWork before the epilogue is deferred, so the lock is
// released here on that path; otherwise the returned function releases
// it, after the epilogue when there is one, even when that re-panics.
func (s *Session) enterSerialized(h *MethodHandle, recv any, extra []any) func() {
	s.serial.Lock()
	entered := false
	defer func() {
		if !entered {
			s.serial.Unlock()
		}
	}()
	exit := s.enterWork(h, recv, extra)
	entered = true
	if exit != nil {
		return exit
	}
	return s.unlockFn
}

// exit is the deferred epilogue of a call that pushed a frame. recover
// works here because this method, through its method value, is the
// deferred function.
func (s *Session) exit() { s.epilogue(recover()) }

// exitSerialized is exit under Config.Serialize: it also releases the
// session lock the call's prologue took.
func (s *Session) exitSerialized() {
	defer s.serial.Unlock()
	s.epilogue(recover())
}

// exitSettled is the deferred epilogue of a settled call, which pushed no
// frame (see enterWork). A normal return, the clean run's, needs nothing;
// an unwind means the run diverged from its clean run.
func (s *Session) exitSettled() {
	if r := recover(); r != nil {
		s.unwindUnsnapshotted(r, true)
	}
}

// enterWork performs the prologue work (counting, injection, checkpoint,
// snapshot) and returns the epilogue the call must defer, or nil when
// nothing needs to happen at method exit. A call whose epilogue needs
// its exit state pushes its frame, as the last step, and gets s.exitFn;
// a settled call gets s.exitSettledFn and pushes none.
func (s *Session) enterWork(h *MethodHandle, recv any, extra []any) func() {
	name := h.name
	m := s.state(h)
	m.calls++
	// Copy what the rest needs: a checkpoint or snapshot may run user
	// code (a Snapshotter) that enters a new method and moves the slots.
	call, mask, diff := m.calls, m.mask, m.diff

	if m.inject {
		if info := m.info; info != nil {
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

	if !mask && !s.cfg.Detect {
		return nil
	}

	// targeted: Config.DiffCalls is nil or lists this call. Only methods
	// with a listed call pay the lookup.
	targeted := s.cfg.DiffCalls == nil || diff && s.cfg.DiffCalls[CallID{name, call}]
	// predicted: the clean run's spans rule out that this call unwinds
	// (Config.Predict), so it needs neither a snapshot nor a checkpoint.
	// If it unwinds anyway, the Detect epilogue counts a miss.
	var clean *Span
	predicted := false
	if s.cfg.Predict != nil && len(s.injected) == 0 && targeted {
		clean = s.cfg.Predict.span(h, call)
		predicted = settled(clean, s.cfg.InjectionPoint)
	}
	if predicted && mask && clean.checkpointed {
		// The clean run's checkpoint stands in for the call's own, which
		// would only be committed: the call counts as masked with its
		// bytes and captures none.
		s.masked++
		s.noteMask(h, clean.bytes, false)
		mask = false
	}
	if predicted && !mask && !s.cfg.RecordSpans && !s.cfg.Serialize {
		// Settled: no snapshot and no checkpoint, so the epilogue needs
		// no exit state, and the call takes no roots and pushes no
		// frame. Only a span-recording run, which fills the call's span
		// at exit, and Serialize, whose epilogue releases the lock, keep
		// the frame.
		return s.exitSettledFn
	}

	roots := s.getRoots(1 + len(extra))
	roots = append(roots, recv)
	roots = append(roots, extra...)

	// The frame is filled in place as the last step: a checkpoint or
	// snapshot may run user code (a Snapshotter) that enters wrapped
	// methods and grows the stack, so no slot is taken before then.
	var (
		handle        checkpoint.Handle
		before        *objgraph.Graph
		beforeFP      objgraph.FP
		fingerprinted bool
		reused        bool
	)
	if mask {
		ch, err := s.strategy.Capture(roots...)
		if err != nil {
			s.maskSkips = append(s.maskSkips, MaskSkip{Method: name, Err: err})
		} else {
			handle = ch
			s.masked++
		}
	}

	if s.cfg.Detect {
		switch {
		case !targeted:
		case predicted:
		case s.cfg.Snapshot == SnapshotFingerprint:
			if clean != nil && clean.before != nil && clean.Enter == s.point && !s.cfg.Serialize {
				// Entered before the injection where the clean run
				// entered it: its before-state is the clean run's. Under
				// Serialize goroutines may interleave differently at the
				// same point, so a serialized call hashes its own.
				beforeFP, reused = clean.before.fp, true
			} else {
				beforeFP = s.graphs.Fingerprint(roots...)
				s.fingerprints++
			}
			fingerprinted = true
		default:
			before = s.graphs.Capture(roots...)
		}
	}

	if handle == nil && !s.cfg.Detect && s.cfg.ExitFire == nil {
		s.putRoots(roots)
		return nil
	}

	span := 0
	if s.cfg.RecordSpans {
		if fingerprinted {
			// The clean capture, drawn from the nodes of those already
			// released.
			before = s.graphs.Capture(roots...)
		}
		span = len(s.spans)
		s.spans = append(s.spans, Span{Call: CallID{name, call}, Enter: s.point, Exit: math.MaxInt})
	}

	n := len(s.frames)
	if n == cap(s.frames) {
		s.frames = slices.Grow(s.frames, 1)
	}
	s.frames = s.frames[:n+1]
	f := &s.frames[n]
	f.method, f.call, f.roots = h, call, roots
	f.handle, f.before, f.beforeFP = handle, before, beforeFP
	f.fingerprinted, f.predicted, f.reused, f.span = fingerprinted, predicted, reused, span
	return s.exitFn
}

// epilogue is the exit handler of the call on top of the frame stack; r
// is the value the deferred exit function recovered. It pops the frame
// before it runs anything that can panic (the ExitFire callback, Rollback,
// the re-panic), so the stack stays balanced on every path. It re-panics
// with a non-nil r unless the Oblivious boundary swallows it.
func (s *Session) epilogue(r any) {
	// Read the frame out and nil its pointers (the slot's other fields
	// are overwritten by the next push): what runs below may push frames.
	last := len(s.frames) - 1
	f := &s.frames[last]
	method, call, roots, handle, before := f.method, f.call, f.roots, f.handle, f.before
	beforeFP, fingerprinted, predicted, reused, span := f.beforeFP, f.fingerprinted, f.predicted, f.reused, f.span
	f.method, f.roots, f.handle, f.before = nil, nil, nil, nil
	s.frames = s.frames[:last]
	name := method.name

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
	var kept *cleanBefore // the clean before-state this run's span keeps
	if s.cfg.RecordSpans {
		sp := &s.spans[span]
		sp.Exit = s.point
		sp.Unwound = r != nil
		if fingerprinted {
			if sp.Exit == sp.Enter && !sp.Unwound {
				// Settled at every point (SpanIndex), so no predicted
				// run snapshots the call before an injection, and no
				// one reads its clean capture: its nodes go back to
				// the session for the next one.
				s.graphs.Release(before)
			} else {
				kept = &cleanBefore{fp: beforeFP, graph: before}
				sp.before = kept
			}
		}
		if handle != nil && r == nil {
			sp.checkpointed, sp.bytes = true, handle.Bytes()
		}
	}
	if r == nil {
		if handle != nil {
			s.noteMask(method, handle.Bytes(), false)
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
		s.noteMask(method, bytes, rolledBack)
	}
	if fingerprinted {
		// Fingerprint mode records the verdict but no diff path. A
		// predicted session reads a non-atomic mark's path off the
		// clean run's capture of the call (MarkDiffs); the campaign
		// driver recovers the rest by replaying the run with capture
		// snapshots at exactly those calls (deterministic replay,
		// matched back by Seq).
		after, ok := objgraph.FP{}, false
		if reused {
			after, ok = s.cfg.Predict.cleanAfter(method, call, s.point, s.cfg.InjectionPoint)
		}
		if !ok {
			after = s.graphs.Fingerprint(roots...)
			s.fingerprints++
		}
		if kept != nil {
			kept.after = after
		}
		unchanged := after == beforeFP
		s.seq++
		s.marks = append(s.marks, Mark{
			Method:    name,
			Seq:       s.seq,
			Atomic:    unchanged,
			Exception: fault.From(r),
			Masked:    rolledBack,
		})
		s.markCalls = append(s.markCalls, CallID{name, call})
		if s.cfg.Predict != nil {
			// The clean span is looked up on this rare path rather
			// than on every call's prologue.
			diff := ""
			if !unchanged {
				diff = s.cfg.Predict.cleanDiff(s.graphs, method, call, beforeFP, roots)
			}
			s.markDiffs = append(s.markDiffs, diff)
		}
	} else if before != nil {
		diff := s.graphs.DiffLive(before, roots...)
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
		s.putRoots(roots)
		s.unwindUnsnapshotted(r, predicted)
		return
	}
	s.putRoots(roots)
	s.propagate(r)
}

// unwindUnsnapshotted ends a Detect call that unwinds with r but took no
// snapshot, being outside DiffCalls or the prediction: it records no
// mark, but consumes its Seq exactly as in an untargeted pass, so the
// other marks keep their numbering. A predicted call (one only the
// prediction excluded) counts a miss: the run diverged from its clean
// run. Then r propagates.
func (s *Session) unwindUnsnapshotted(r any, predicted bool) {
	s.seq++
	if predicted {
		s.misses++
	}
	s.propagate(r)
}

// propagate re-panics with r, the value an unwinding call's epilogue
// recovered, once its mark is recorded. In failure-oblivious mode an
// injected exception stops here instead — this wrapper is the handler
// boundary; its method returns zero values and the workload continues
// (organic and foreign panics still propagate).
func (s *Session) propagate(r any) {
	if s.cfg.Oblivious {
		if exc, ok := r.(*fault.Exception); ok && exc.Injected {
			return
		}
	}
	panic(r)
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
	if s.activations == nil {
		s.activations = make(map[siteKey]int)
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
// back on the free-list. It clears element by element: a receiver or two
// costs less that way than clear's bulk write barrier. (The compiler turns
// a range loop of zeroing stores into that same clear, so the loop counts.)
func (s *Session) putRoots(r []any) {
	for i := 0; i < len(r); i++ {
		r[i] = nil
	}
	s.rootsFree = append(s.rootsFree, r[:0])
}

// inject raises an injected exception at the current point (Listing 1,
// lines 2–5).
func (s *Session) inject(kind fault.Kind, name string) {
	exc := fault.New(kind, name, s.point)
	s.injected = append(s.injected, exc)
	panic(exc)
}
