// Package failatomic detects and masks non-atomic exception handling in Go
// programs, reproducing "Automatic Detection and Masking of Non-Atomic
// Exception Handling" (Fetzer, Högstedt, Felber — DSN 2003) on top of
// panic/recover.
//
// A method is failure atomic if, whenever it terminates by panicking, the
// object graph reachable from its receiver (and by-reference arguments) is
// identical before the call and after the exceptional return. Methods that
// violate this leave objects in inconsistent states that defeat
// catch-and-retry recovery.
//
// # Instrumenting
//
// Every method to be analyzed carries a one-line prologue through its
// method handle, resolved once at package init:
//
//	var mInsert = failatomic.Method("List.Insert")
//
//	func (l *List) Insert(v int) {
//		defer mInsert.Enter(l)()
//		...
//	}
//
// The faweave source weaver inserts the same prologue by name,
// defer failatomic.Enter(l, "List.Insert")(), which interns the name and
// takes the handle's path. With no session installed the prologue is a
// cheap no-op.
//
// # Detecting
//
// Describe the program under test and run a Campaign. The campaign
// executes the workload once per potential injection point, raising one
// exception per run, and classifies every method as failure atomic,
// conditional failure non-atomic, or pure failure non-atomic:
//
//	program := &failatomic.Program{
//		Name:     "myapp",
//		Registry: reg,
//		Run:      func() { ... fresh objects, deterministic workload ... },
//	}
//	result, err := failatomic.Detect(ctx, program, failatomic.DetectOptions{})
//	for _, m := range result.NonAtomicMethods() { ... }
//
// # Masking
//
// Protect installs the masking runtime (Listing 2 of the paper): every
// listed method is wrapped with checkpoint/rollback so its callers observe
// failure atomic behavior:
//
//	p, err := failatomic.Protect(result.NonAtomicMethods(), failatomic.ProtectOptions{})
//	defer p.Close()
//
// Each call picks its checkpoint from its roots. A root that implements
// Journaled is journaled: it records an undo action per write, so its
// checkpoint costs what the call writes, the paper's copy-on-write remedy
// for large objects (§6.2). The other roots share one eager deep copy.
// Guard picks the same way.
package failatomic

import (
	"context"
	"fmt"
	"time"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
	"failatomic/internal/detect"
	"failatomic/internal/fault"
	"failatomic/internal/inject"
	"failatomic/internal/objgraph"
	"failatomic/internal/repair"
)

// Enter is the woven method prologue by name. recv is the receiver (nil
// for constructors and free functions), name the "Class.Method" label,
// extra any by-reference arguments that belong to the compared object
// graph. The returned closure must be deferred immediately. It is
// Method(name).Enter(recv, extra...).
func Enter(recv any, name string, extra ...any) func() {
	return core.Enter(recv, name, extra...)
}

// MethodHandle is one instrumented method's process-wide identity; its
// Enter(recv, extra...) is the prologue, with Enter's arguments.
type MethodHandle = core.MethodHandle

// Method returns the handle of the named method ("Class.Method"),
// interning the name on first use. A handle resolved once, in a
// package-level variable, makes a prologue that looks nothing up per
// call.
func Method(name string) *MethodHandle { return core.Method(name) }

// Kind names an exception type.
type Kind = fault.Kind

// Exception is the value carried by a panic that models a thrown
// exception.
type Exception = fault.Exception

// Generic runtime kinds (injected into every method) and the declared
// kinds shared by the bundled applications.
const (
	RuntimeError     = fault.RuntimeError
	OutOfMemory      = fault.OutOfMemory
	IndexOutOfBounds = fault.IndexOutOfBounds
	IllegalElement   = fault.IllegalElement
	NoSuchElement    = fault.NoSuchElement
	IllegalArgument  = fault.IllegalArgument
	IllegalState     = fault.IllegalState
	CapacityExceeded = fault.CapacityExceeded
	ParseError       = fault.ParseError
	IOError          = fault.IOError
)

// Throw panics with an organic (non-injected) Exception of the given kind.
func Throw(kind Kind, method, format string, args ...any) {
	fault.Throw(kind, method, format, args...)
}

// ExceptionFrom converts a recovered panic value into an *Exception.
func ExceptionFrom(r any) *Exception { return fault.From(r) }

// Registry maps instrumentation names to method metadata — which methods
// exist and which exception kinds each declares (the Analyzer output of
// the paper's Step 1).
type Registry = core.Registry

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// Program is one instrumented application under test.
type Program = inject.Program

// Mark records one atomicity observation of the detection phase.
type Mark = core.Mark

// MethodClass is a method's classification.
type MethodClass = detect.MethodClass

// Classification values.
const (
	ClassAtomic      = detect.ClassAtomic
	ClassConditional = detect.ClassConditional
	ClassPure        = detect.ClassPure
)

// MethodReport is the per-method detection output.
type MethodReport = detect.MethodReport

// Result is the outcome of a detection campaign.
type Result struct {
	// Campaign holds the raw injection runs.
	Campaign *inject.Result
	// Classification holds the per-method verdicts.
	*detect.Classification
}

// DetectOptions tunes a detection campaign.
type DetectOptions struct {
	// MaxRuns caps the number of injector executions (0 = default).
	MaxRuns int
	// Repeats runs the workload this many times per execution, scaling the
	// injection space (campaign cost grows quadratically).
	Repeats int
	// ExceptionFree lists methods asserted never to throw (§4.3); they
	// receive no injection points.
	ExceptionFree map[string]bool
	// Mask additionally wraps the listed methods during the campaign —
	// the masking-phase verification loop.
	Mask map[string]bool
	// Serialize holds a session-global lock across each instrumented call,
	// for workloads that spawn goroutines (the paper's §4.4 mitigation:
	// "restricting the amount of parallelism"). Spawned goroutines inherit
	// their run's session. Without it, a workload must make its
	// instrumented calls from one goroutine at a time: a run's session
	// keeps its open calls on one LIFO stack.
	Serialize bool
	// Parallelism explores the injection-point space with this many worker
	// goroutines (0 or 1 = one worker). Every run binds its worker's
	// session, reset for the run, to its goroutine, so campaigns coexist
	// with each other and with an installed Protect, and runs are merged in
	// point order, so a deterministic workload classifies identically at
	// any Parallelism — only faster.
	Parallelism int
	// RunTimeout bounds each injection run; a run that exceeds it is
	// abandoned and the point retried or quarantined instead of hanging
	// the campaign (0 disables the watchdog). Setting RunTimeout or
	// MaxRetries enables per-run supervision.
	RunTimeout time.Duration
	// MaxRetries re-attempts hung or crashed (foreign-panic) runs this
	// many extra times before quarantining the point.
	MaxRetries int
	// MaxQuarantined fails the campaign once more than this many points
	// are quarantined; <= 0 tolerates any number, completing the campaign
	// and reporting the quarantined points on the Result.
	MaxQuarantined int
	// Perturb selects extra fault strategies on top of the default
	// first-activation sweep, in fadetect's -perturb grammar: a
	// comma-separated list of "nth[=N]", "burst[=budget]", "defer" and
	// "oblivious" (e.g. "nth=3,burst,oblivious"). Their runs are
	// classified per strategy via StrategyClassification; the baseline
	// Classification is unchanged by adding strategies.
	Perturb string
}

// Quarantine summarizes one injection point the campaign supervisor gave
// up on after its retries.
type Quarantine = inject.Quarantine

// Detect runs the full detection phase for a program: one clean run to
// size the injection space, one run per injection point, then offline
// classification. The context cancels the campaign between runs (mid-run
// when a RunTimeout supervisor is active).
func Detect(ctx context.Context, p *Program, opts DetectOptions) (*Result, error) {
	perturbations, err := inject.ParsePerturbations(opts.Perturb)
	if err != nil {
		return nil, err
	}
	res, err := inject.Campaign(ctx, p, inject.Options{
		MaxRuns:        opts.MaxRuns,
		Repeats:        opts.Repeats,
		ExceptionFree:  opts.ExceptionFree,
		Mask:           opts.Mask,
		Serialize:      opts.Serialize,
		Parallelism:    opts.Parallelism,
		RunTimeout:     opts.RunTimeout,
		MaxRetries:     opts.MaxRetries,
		MaxQuarantined: opts.MaxQuarantined,
		Perturbations:  perturbations,
	})
	if err != nil {
		return nil, err
	}
	cls := detect.Classify(res, detect.Options{ExceptionFree: opts.ExceptionFree})
	return &Result{Campaign: res, Classification: cls}, nil
}

// Strategies lists the perturbation strategies that contributed runs to
// the campaign, sorted; empty when Detect ran without Perturb.
func (r *Result) Strategies() []string { return detect.Strategies(r.Campaign) }

// StrategyClassification classifies only the runs one perturbation
// strategy planned — compare against the embedded baseline Classification
// to see which methods the richer fault model flips.
func (r *Result) StrategyClassification(strategy string) *detect.Classification {
	return detect.ClassifyStrategy(r.Campaign, detect.Options{}, strategy)
}

// Injections returns the number of runs in which an exception fired.
func (r *Result) Injections() int { return r.Campaign.Injections }

// Quarantined returns the injection points the supervisor quarantined
// (hung or crashed after retries), in point order; empty for a healthy
// campaign.
func (r *Result) Quarantined() []Quarantine { return r.Campaign.Quarantined }

// Calls returns the clean-run per-method call counts.
func (r *Result) Calls() map[string]int64 { return r.Campaign.CleanCalls }

// Guard checkpoints the given roots and returns a closure to defer: on
// panic it rolls the roots back and re-panics, making the guarded region
// failure atomic; on normal return it commits (detaching any journal and
// handing its undo records to the enclosing one, so an enclosing Guard
// that rolls back also undoes this region's writes). A Journaled root is
// journaled, the other roots are deep-copied, as under Protect.
// This is the checkpoint rung of the repair pipeline's Item-76 ladder —
// the form farepair weaves into methods that cannot be fixed by
// reordering or a temp-copy swap:
//
//	defer failatomic.Guard(l)()
//
// A capture failure is reported by leaving the roots unguarded (the
// closure is a no-op); the alternative — panicking inside the prologue —
// would turn a diagnostic limitation into a new failure mode.
func Guard(roots ...any) func() {
	handle, err := checkpoint.New().Capture(roots...)
	if err != nil {
		return func() {}
	}
	return func() {
		if r := recover(); r != nil {
			_ = handle.Rollback()
			panic(r)
		}
		if c, ok := handle.(checkpoint.Committer); ok {
			c.Commit()
		}
	}
}

// RepairConfig tunes a Repair workflow: the application, where to
// materialize its trees, and the phase-1 campaign options.
type RepairConfig = repair.Config

// RepairReport is the outcome of a Repair workflow; Render prints it and
// Succeeded reports whether the repaired tree verified clean.
type RepairReport = repair.Report

// Repair closes the paper's detect → mask → verify loop for a bundled
// application with an embedded source tree: run the detection campaign,
// derive the §4.3 masking plan with an Item-76 strategy rung per method,
// rewrite a copy of the source tree per rung, rebuild both trees and
// re-run detection in child processes, then verify the masking plan
// in-process, collecting per-strategy overhead. This is the programmatic
// form of the farepair command.
func Repair(ctx context.Context, cfg RepairConfig) (*RepairReport, error) {
	return repair.Run(ctx, cfg)
}

// Journaled is implemented by types that record undo actions while they
// mutate; Protect and Guard journal such a root instead of copying it.
type Journaled = checkpoint.Journaled

// Journal accumulates a Journaled root's undo actions.
type Journal = checkpoint.Journal

// Snapshotter lets a type with unexported state participate in
// checkpointing by providing its own deep copy.
type Snapshotter = checkpoint.Snapshotter

// Protection is an installed masking runtime.
type Protection struct {
	session *core.Session
}

// ProtectOptions tunes Protect.
type ProtectOptions struct {
	// All masks every instrumented method instead of a listed set.
	All bool
	// Serialize holds a session-global lock across each instrumented call,
	// making checkpoint/rollback safe for concurrent callers at the price
	// of serializing them (§4.4). Without it, instrumented calls must come
	// from one goroutine at a time: the session keeps its open calls on
	// one LIFO stack.
	Serialize bool
}

// Protect installs the masking runtime for production use: each listed
// method is wrapped with checkpoint-on-entry / rollback-on-panic, making
// it failure atomic to its callers. Exactly one Protect can be installed
// at a time; Close releases it. Detect campaigns bind their sessions to
// their own goroutines and are not subject to the exclusivity.
func Protect(methods []string, opts ProtectOptions) (*Protection, error) {
	if len(methods) == 0 && !opts.All {
		return nil, fmt.Errorf("failatomic: Protect needs methods or All")
	}
	set := make(map[string]bool, len(methods))
	for _, m := range methods {
		set[m] = true
	}
	session := core.NewSession(core.Config{
		Mask:        true,
		MaskAll:     opts.All,
		MaskMethods: set,
		Serialize:   opts.Serialize,
	})
	if err := core.Install(session); err != nil {
		return nil, err
	}
	return &Protection{session: session}, nil
}

// Close uninstalls the masking runtime.
func (p *Protection) Close() { core.Uninstall(p.session) }

// MaskedCalls returns how many calls were checkpointed so far.
func (p *Protection) MaskedCalls() int64 { return p.session.MaskedCalls() }

// Rollbacks returns how many exceptions were masked by rollback.
func (p *Protection) Rollbacks() int64 { return p.session.Rollbacks() }

// Skips returns the methods whose checkpoints failed (they ran unmasked).
func (p *Protection) Skips() []core.MaskSkip { return p.session.MaskSkips() }

// Graph is an immutable encoded object graph (Definition 1).
type Graph = objgraph.Graph

// CaptureGraph encodes the object graphs rooted at the given values.
func CaptureGraph(roots ...any) *Graph { return objgraph.Capture(roots...) }

// GraphsEqual reports whether two captured graphs are isomorphic — the
// atomicity test of Definition 2.
func GraphsEqual(a, b *Graph) bool { return objgraph.Equal(a, b) }

// GraphDiff returns the path to the first difference between two graphs,
// or "" if they are equal.
func GraphDiff(a, b *Graph) string { return objgraph.Diff(a, b) }
