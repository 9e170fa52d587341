// Package inject drives the detection phase's automated experiments
// (Step 3, §4.1): it executes an instrumented program once per injection
// point, raising exactly one exception per run, and collects the atomicity
// marks the wrappers record while the exception unwinds.
package inject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Program is one instrumented application under test: a fresh, isolated
// workload execution plus the Analyzer's method registry.
type Program struct {
	// Name identifies the application (a Table 1 row).
	Name string
	// Lang tags the evaluation group ("cpp" or "java") for the figures.
	Lang string
	// Registry supplies declared exception kinds per method.
	Registry *core.Registry
	// Run executes the workload against freshly constructed objects. It is
	// invoked once per injection point; injected exceptions that the
	// workload does not handle propagate out and are caught by the
	// campaign.
	Run func()
	// DeferMethods names the methods whose source carries a defer
	// statement (the weaver's MethodFacts.HasDefer); the deferred-cleanup
	// perturbation targets exactly these. Nil means unknown — the strategy
	// then falls back to every non-constructor method.
	DeferMethods map[string]bool
}

// RunStatus classifies the fate of one injector execution.
type RunStatus int

const (
	// RunOK is a normal execution (the zero value).
	RunOK RunStatus = iota
	// RunHung marks a quarantined point whose run exceeded RunTimeout on
	// every attempt; its goroutine was abandoned, so the run carries no
	// session observations.
	RunHung
	// RunUndetermined marks a quarantined point whose run crashed with a
	// foreign (non-*fault.Exception) panic on every attempt; its marks are
	// kept for triage but excluded from classification.
	RunUndetermined
)

// String returns the status name used in reports and logs.
func (s RunStatus) String() string {
	switch s {
	case RunHung:
		return "hung"
	case RunUndetermined:
		return "undetermined"
	default:
		return "ok"
	}
}

// Run records one execution of the exception injector program.
type Run struct {
	// InjectionPoint is the primary point coordinate of the run's RunKey:
	// the counter threshold for default and oblivious runs, the first point
	// of a burst pair, the site or method index of nth-activation and
	// deferred-cleanup runs (0 for the clean run).
	InjectionPoint int
	// Strategy is the perturbation model that planned this run; "" is the
	// default first-activation sweep, so legacy journals — which have no
	// strategy field at all — decode as the default strategy.
	Strategy string `json:"strategy,omitempty"`
	// Arg is the strategy-specific run-key argument (the N of an
	// nth-activation run, the second point of a burst pair, the call
	// ordinal of a deferred-cleanup run, the faulted worker of a
	// concurrent schedule); 0 when unused.
	Arg int `json:"arg,omitempty"`
	// Sched is the schedule identifier of a concurrent-campaign run; 0 for
	// every single-threaded run, so legacy journals — which never carried
	// the field — decode unchanged.
	Sched int `json:"sched,omitempty"`
	// Injected is the exception raised in this run, or nil if the counter
	// never reached the threshold (e.g. an earlier organic exception
	// terminated the workload).
	Injected *fault.Exception
	// Escaped is the exception that propagated out of the workload's top
	// level, or nil if the workload completed (or handled it).
	Escaped *fault.Exception
	// Marks are the atomicity observations, in callee-first order.
	Marks []core.Mark
	// Status is RunOK for a normal execution; RunHung/RunUndetermined mark
	// quarantined points, whose marks the classifier ignores.
	Status RunStatus
	// Retries is how many extra attempts the supervisor made before this
	// run was recorded.
	Retries int
	// Err describes the last failure of a quarantined point.
	Err string
	// MaskStats is the per-method masking overhead of this run; nil unless
	// the campaign masked methods. Omitted from journals of plain detect
	// campaigns, keeping their byte format unchanged.
	MaskStats map[string]core.MaskStat `json:"maskStats,omitempty"`
	// Concur records what a concurrent schedule observed (per-worker
	// operation history, final abstract state, linearization verdict); nil
	// for every single-threaded run.
	Concur *ConcurOutcome `json:"concur,omitempty"`
}

// Quarantine summarizes one point the supervisor gave up on.
type Quarantine struct {
	// InjectionPoint is the quarantined run's primary point coordinate.
	InjectionPoint int
	// Strategy/Arg complete the quarantined run's RunKey.
	Strategy string `json:"strategy,omitempty"`
	Arg      int    `json:"arg,omitempty"`
	// Status is RunHung or RunUndetermined.
	Status RunStatus
	// Retries is the number of extra attempts made before quarantining.
	Retries int
	// Kind is the exception kind of the last attempt's escape, if any.
	Kind fault.Kind
	// Err is the last failure description.
	Err string
}

// Result aggregates a full campaign over one program.
type Result struct {
	// Program points back to the subject.
	Program *Program
	// CleanCalls is the per-method call count of the clean run — the
	// weights of Figures 2(b)/3(b).
	CleanCalls map[string]int64
	// TotalPoints is the number of potential injection points in one clean
	// execution.
	TotalPoints int
	// Injections is the number of runs in which an exception actually
	// fired — the Table 1 "#Injections" column.
	Injections int
	// Runs holds every execution, clean run first.
	Runs []Run
	// Warnings flags runs that did not behave as the clean run predicted —
	// usually a nondeterministic workload (which makes point numbering
	// meaningless) or a workload terminated early by an organic failure.
	Warnings []string
	// Quarantined lists the points the supervisor gave up on (their runs
	// have Status != RunOK), in point order. Quarantined runs are excluded
	// from Injections, dead-point warnings and classification.
	Quarantined []Quarantine
	// Sections are named free-form report blocks appended to the log after
	// the runs (a concurrent campaign's schedule report travels this way).
	// Readers that do not know a section's name must render its text
	// verbatim, which is what lets old binaries degrade gracefully on new
	// logs.
	Sections []Section
	// SnapshotCache is always zero: snapshots no longer go through a
	// fingerprint cache.
	//
	// Deprecated: kept only while the benchmark module still reads it.
	SnapshotCache struct{ Hits, Misses, Bytes int64 }
	// PredictMisses counts the runs whose predicted first pass unwound
	// through a call the clean run's spans excluded (a workload that
	// diverged from its clean run); each was redone with every call
	// snapshotted. Operational telemetry only: it is not serialized into
	// reports or journals.
	PredictMisses int
}

// Options tunes a campaign.
type Options struct {
	// MaxRuns caps the number of injector executions (0 = DefaultMaxRuns).
	MaxRuns int
	// Repeats runs the workload this many times per execution (0/1 = once),
	// scaling the injection space toward the paper's thousands of points.
	// Campaign cost grows quadratically with Repeats. An exception that
	// escapes one iteration ends the whole execution, exactly as a longer
	// test program would.
	Repeats int
	// ExceptionFree methods get no injection points (§4.3).
	ExceptionFree map[string]bool
	// Mask additionally enables masking for the listed methods during the
	// campaign, which is how the masking phase is verified: a masked
	// campaign must classify every masked method failure atomic.
	Mask map[string]bool
	// MaskStrategy selects the checkpoint strategy for masked methods; nil
	// means checkpoint.DeepCopy.
	MaskStrategy checkpoint.Strategy
	// Serialize holds a session-global lock across each instrumented call
	// (§4.4's concurrency mitigation) for workloads that spawn goroutines.
	// A run's goroutines inherit its session binding, so their calls are
	// observed like the workload's own — except in failatomic_portable_gls
	// builds, whose bindings (keyed by goroutine id) do not follow child
	// goroutines: there a spawned goroutine's calls go unobserved.
	Serialize bool
	// Snapshot selects the session snapshot engine. The default,
	// core.SnapshotFingerprint, compares streaming 128-bit graph hashes
	// around the snapshotted wrapped calls (threshold experiments snapshot
	// only the calls the clean run's spans predict can unwind, see
	// core.SpanIndex; the others snapshot every call); a run that records
	// a non-atomic mark is deterministically replayed with capture
	// snapshots at exactly the marked calls, and the recovered
	// human-readable Mark.Diff values are patched into the run — reports
	// and journals stay byte-identical to capture mode. Every snapshot is
	// one cold objgraph.Fingerprint traversal. core.SnapshotCapture
	// materializes full graphs at every snapshotted call (the escape
	// hatch).
	Snapshot core.SnapshotMode
	// Parallelism is the number of worker goroutines exploring injection
	// points concurrently (0 or 1 = one worker). Every run binds its own
	// session to its goroutine (core.Session.Bind), so campaigns never
	// contend for the global session slot and may share a process with
	// each other and with an installed Protect session; Runs are merged in
	// plan order, making the result independent of Parallelism over a
	// deterministic workload.
	Parallelism int
	// RunTimeout bounds each injector execution. On expiry the supervisor
	// abandons the run's goroutine (goroutines are unkillable; the leak is
	// bounded — see supervise.go), records the attempt as hung, and
	// retries or quarantines the point instead of hanging the campaign.
	// 0 disables the watchdog.
	RunTimeout time.Duration
	// MaxRetries re-attempts a hung or crashed run this many extra times
	// (capped exponential backoff between attempts) before quarantining
	// the point. Setting RunTimeout or MaxRetries enables supervision.
	MaxRetries int
	// MaxQuarantined fails the campaign with ErrQuarantineBudget once more
	// than this many points are quarantined. <= 0 means unlimited: the
	// campaign completes and reports every quarantined point.
	MaxQuarantined int
	// OnRun streams every completed run as the campaign progresses — the
	// crash-safe journal hook. Runs arrive clean-run first, then in plan
	// order with one worker and completion order with several; an error
	// aborts the campaign. The sink is called from worker goroutines, under
	// Parallelism concurrently, and must serialize itself (replog.Journal
	// does).
	OnRun func(Run) error
	// Completed maps run keys recovered from a journal to their recorded
	// runs: the campaign splices them into the Result without re-executing
	// them and without re-notifying OnRun (crash-safe resume). The clean
	// run always re-executes — it sizes the space.
	Completed map[RunKey]Run
	// Perturbations are the extra fault strategies the campaign runs on
	// top of the always-on default first-activation sweep, in order. Each
	// plans its experiment grid from the clean run's profile; the plan is
	// deterministic, so resumed and dispatched campaigns re-derive the
	// identical experiment list.
	Perturbations []Perturbation
}

// supervised reports whether the per-run watchdog/retry/quarantine layer
// is active. Unsupervised campaigns keep the legacy behavior exactly: no
// extra goroutine per run, foreign escapes recorded as ordinary runs.
func (o Options) supervised() bool {
	return o.RunTimeout > 0 || o.MaxRetries > 0
}

// DefaultMaxRuns bounds campaigns against runaway workloads.
const DefaultMaxRuns = 250_000

// MaxDeadPointWarnings caps the per-point "never fired" warnings kept on a
// Result. A large nondeterministic campaign can have hundreds of thousands
// of dead points; beyond this many, the remainder is summarized in one
// final warning instead of one string per point.
const MaxDeadPointWarnings = 10

// ErrTooManyRuns reports a campaign that exceeded its run budget.
var ErrTooManyRuns = errors.New("inject: campaign exceeded MaxRuns")

// ErrQuarantineBudget reports a campaign that quarantined more points than
// Options.MaxQuarantined tolerates.
var ErrQuarantineBudget = errors.New("inject: campaign exceeded MaxQuarantined")

// Campaign runs the full detection experiment for p: one clean run to size
// the injection space, then one run per injection point, incrementing the
// threshold each time exactly as in Step 3. Every run constructs fresh
// objects and its own session, so the run space is embarrassingly
// parallel: max(1, min(Parallelism, len(plan))) workers bind a private
// session to their goroutine (core.Session.Bind) and claim experiments
// from an atomic cursor, and the runs are merged in plan order, so a
// deterministic workload yields the same Result at any Parallelism. The
// context cancels the campaign between runs (and mid-run when
// supervised); runs already streamed to Options.OnRun survive for resume.
//
// Failure handling is two-tier: per-point failures (hangs, foreign-panic
// crashes) are retried and quarantined by the supervisor and never stop
// the campaign by themselves; only campaign-level failures — cancellation,
// a blown quarantine budget, a journal write error — stop every worker.
func Campaign(ctx context.Context, p *Program, opts Options) (*Result, error) {
	if p == nil || p.Run == nil {
		return nil, errors.New("inject: program must have a Run function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRuns
	}

	// The clean run must finish first — it sizes the injection space.
	clean, err := cleanRun(ctx, p, opts)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	res := &Result{
		Program:     p,
		CleanCalls:  clean.calls,
		TotalPoints: clean.points,
	}
	exps := planExperiments(clean.profile(p), opts, clean.spans)
	if err := checkBudget(len(exps), maxRuns); err != nil {
		return nil, err
	}
	if err := validateCompleted(opts.Completed, exps, res.TotalPoints); err != nil {
		return nil, err
	}
	if _, journaled := opts.Completed[RunKey{}]; !journaled {
		if err := notifyRun(opts, clean.run); err != nil {
			return nil, err
		}
	}

	// outs[i] is written by exactly one worker; index 0 is the clean run
	// and index i is experiment exps[i-1].
	outs := make([]execution, len(exps)+1)
	outs[0] = clean
	var (
		next        atomic.Int64 // next experiment index to claim (1-based)
		quarantines atomic.Int64 // early-stop mirror of the merge-time tally
		stop        atomic.Bool  // campaign-level cancellation flag
		errOnce     sync.Once
		firstErr    error
		wg          sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := max(1, min(opts.Parallelism, len(exps))); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i > len(exps) {
					return
				}
				ex := exps[i-1]
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("inject: campaign interrupted before %s: %w", ex.Key, err))
					return
				}
				out, journaled, err := experimentRun(ctx, p, ex, opts)
				if err != nil {
					fail(fmt.Errorf("injection %s: %w", ex.Key, err))
					return
				}
				outs[i] = out
				if out.run.Status != RunOK {
					// Early stop only; the plan-order merge below is the
					// authority and recomputes the same budget.
					if q := quarantines.Add(1); opts.MaxQuarantined > 0 && q > int64(opts.MaxQuarantined) {
						fail(fmt.Errorf("%w: %d points quarantined > %d", ErrQuarantineBudget, q, opts.MaxQuarantined))
						return
					}
				}
				if !journaled {
					if err := notifyRun(opts, out.run); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Deterministic merge: Runs, Injections, warnings and quarantines are
	// accumulated in plan order regardless of which worker ran which
	// experiment.
	res.Runs = make([]Run, 0, len(outs))
	t := tally{res: res, max: opts.MaxQuarantined}
	for _, out := range outs {
		if err := t.add(out); err != nil {
			return nil, err
		}
	}
	t.finish()
	return res, nil
}

// experimentRun produces the execution for one planned experiment:
// spliced from the resume journal if present, otherwise executed (under
// the supervisor when one is configured). The bool reports whether the
// run was spliced.
func experimentRun(ctx context.Context, p *Program, ex Experiment, opts Options) (execution, bool, error) {
	if run, ok := opts.Completed[ex.Key]; ok {
		return execution{run: run}, true, nil
	}
	if opts.supervised() {
		out, err := supervise(ctx, p, ex, opts)
		return out, false, err
	}
	return execute(p, ex, opts), false, nil
}

// notifyRun streams one completed run to the journal hook.
func notifyRun(opts Options, run Run) error {
	if opts.OnRun == nil {
		return nil
	}
	if err := opts.OnRun(run); err != nil {
		return fmt.Errorf("inject: OnRun %s: %w", run.Key(), err)
	}
	return nil
}

// validateCompleted rejects a resume journal that does not fit the fresh
// experiment plan — the usual causes are a nondeterministic workload, a
// journal written by a different program or options, and a journal written
// under a different perturbation list.
func validateCompleted(completed map[RunKey]Run, exps []Experiment, totalPoints int) error {
	if len(completed) == 0 {
		return nil
	}
	valid := make(map[RunKey]bool, len(exps)+1)
	valid[RunKey{}] = true // the clean run
	for _, ex := range exps {
		valid[ex.Key] = true
	}
	for key := range completed {
		if valid[key] {
			continue
		}
		if key.Strategy == "" {
			return fmt.Errorf("inject: resume journal holds point %d but the clean run sized only %d points (nondeterministic workload or wrong journal?)", key.Point, totalPoints)
		}
		return fmt.Errorf("inject: resume journal holds %s outside this campaign's experiment plan (different -perturb options or wrong journal?)", key)
	}
	return nil
}

// tally accumulates the bookkeeping done as a run enters the Result:
// injections, dead-point warnings, quarantines and the quarantine budget.
type tally struct {
	res         *Result
	dead        deadPointWarnings
	quarantined int
	max         int
}

func (t *tally) add(out execution) error {
	run := out.run
	t.res.Runs = append(t.res.Runs, run)
	if out.missed {
		t.res.PredictMisses++
	}
	if run.InjectionPoint == 0 {
		return nil
	}
	if run.Status != RunOK {
		t.quarantined++
		t.res.Quarantined = append(t.res.Quarantined, quarantineOf(run))
		if t.max > 0 && t.quarantined > t.max {
			return fmt.Errorf("%w: %d points quarantined > %d", ErrQuarantineBudget, t.quarantined, t.max)
		}
		return nil
	}
	if run.Injected != nil {
		t.res.Injections++
	} else if run.Strategy == "" {
		// Dead-point warnings cover only the default sweep: a strategy run
		// that never fired is an expected grid artifact (e.g. an earlier
		// organic failure cut the run before a burst pair's first point),
		// not a sign of nondeterminism the default sweep hasn't already
		// flagged.
		t.dead.add(run.InjectionPoint)
	}
	return nil
}

func (t *tally) finish() { t.res.Warnings = t.dead.list() }

// quarantineOf summarizes a quarantined run for the campaign report.
func quarantineOf(run Run) Quarantine {
	q := Quarantine{
		InjectionPoint: run.InjectionPoint,
		Strategy:       run.Strategy,
		Arg:            run.Arg,
		Status:         run.Status,
		Retries:        run.Retries,
		Err:            run.Err,
	}
	if run.Escaped != nil {
		q.Kind = run.Escaped.Kind
	}
	return q
}

// checkBudget enforces the run budget over every execution the campaign
// will perform: the clean run plus one run per planned experiment (the
// default sweep has one experiment per point).
func checkBudget(experiments, maxRuns int) error {
	if experiments+1 > maxRuns {
		return fmt.Errorf("%w: %d points + 1 clean run > %d", ErrTooManyRuns, experiments, maxRuns)
	}
	return nil
}

// deadPointWarnings accumulates "point never fired" warnings, keeping the
// first MaxDeadPointWarnings verbatim and summarizing the rest.
type deadPointWarnings struct {
	kept  []string
	total int
}

func (w *deadPointWarnings) add(ip int) {
	w.total++
	if len(w.kept) < MaxDeadPointWarnings {
		w.kept = append(w.kept, fmt.Sprintf(
			"point %d never fired: workload is nondeterministic or an earlier organic failure cut the run short",
			ip))
	}
}

func (w *deadPointWarnings) list() []string {
	if w.total > len(w.kept) {
		return append(w.kept, fmt.Sprintf(
			"...and %d more points never fired (%d dead points in total)",
			w.total-len(w.kept), w.total))
	}
	return w.kept
}

type execution struct {
	run Run
	// markCalls is the call identity of each of run.Marks (index-aligned),
	// the key diff recovery matches replayed marks on.
	markCalls []core.CallID
	calls     map[string]int64
	points    int
	trace     []core.PointInfo
	// spans are the call spans of a span-recording (clean) run.
	spans []core.Span
	// missed reports a predicted first pass that unwound through an
	// unsnapshotted call; a settled execution keeps it set after the redo.
	missed bool
}

// profile packages what the clean execution discovered for the
// perturbation planners.
func (e execution) profile(p *Program) Profile {
	return Profile{
		TotalPoints: e.points,
		Calls:       e.calls,
		Trace:       e.trace,
		Program:     p,
	}
}

// newSession builds the injector session realizing one experiment;
// diffCalls restricts its Detect snapshots (nil = every call, or the
// predicted calls of a threshold experiment).
func newSession(p *Program, ex Experiment, opts Options, diffCalls map[core.CallID]bool) *core.Session {
	cfg := core.Config{
		Registry:       p.Registry,
		Inject:         true,
		InjectionPoint: ex.point,
		Trigger:        ex.trigger,
		Oblivious:      ex.oblivious,
		TracePoints:    ex.trace,
		Detect:         true,
		Snapshot:       opts.Snapshot,
		DiffCalls:      diffCalls,
		Predict:        ex.predict,
		RecordSpans:    ex.spans,
		Mask:           len(opts.Mask) > 0,
		MaskMethods:    opts.Mask,
		Strategy:       opts.MaskStrategy,
		ExceptionFree:  opts.ExceptionFree,
		Serialize:      opts.Serialize,
	}
	if ex.exitMethod != "" {
		method, call := ex.exitMethod, ex.exitCall
		cfg.ExitFire = func(m string, c int64) (fault.Kind, bool) {
			if m == method && c == call {
				return fault.RuntimeError, true
			}
			return "", false
		}
	}
	return core.NewSession(cfg)
}

// workload returns the (possibly repeated) body of one injector run.
func workload(p *Program, opts Options) func() {
	repeats := opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	return func() {
		for i := 0; i < repeats; i++ {
			p.Run()
		}
	}
}

// collect packages what one finished session observed.
func collect(session *core.Session, ex Experiment, escaped *fault.Exception) execution {
	return execution{
		run: Run{
			InjectionPoint: ex.Key.Point,
			Strategy:       ex.Key.Strategy,
			Arg:            ex.Key.Arg,
			Injected:       session.Injected(),
			Escaped:        escaped,
			Marks:          session.Marks(),
			MaskStats:      session.MaskStats(),
		},
		markCalls: session.MarkCalls(),
		calls:     session.Calls(),
		points:    session.Point(),
		trace:     session.PointTrace(),
		spans:     session.Spans(),
		missed:    session.PredictMisses() > 0,
	}
}

// MaskStatTotals sums the per-method masking overhead across every run of
// the campaign; nil when nothing was masked.
func (r *Result) MaskStatTotals() map[string]core.MaskStat {
	var totals map[string]core.MaskStat
	for _, run := range r.Runs {
		for name, st := range run.MaskStats {
			if totals == nil {
				totals = make(map[string]core.MaskStat)
			}
			t := totals[name]
			t.Calls += st.Calls
			t.Bytes += st.Bytes
			t.Rollbacks += st.Rollbacks
			totals[name] = t
		}
	}
	return totals
}

// cleanRun performs the space-sizing clean execution. Supervised
// campaigns run it under the watchdog, but a clean run that still hangs
// or crashes after its retries is a hard error — without it there is no
// point space to quarantine within.
func cleanRun(ctx context.Context, p *Program, opts Options) (execution, error) {
	if err := ctx.Err(); err != nil {
		return execution{}, err
	}
	ex := cleanExperiment(opts)
	if !opts.supervised() {
		return execute(p, ex, opts), nil
	}
	out, err := supervise(ctx, p, ex, opts)
	if err != nil {
		return execution{}, err
	}
	if out.run.Status != RunOK {
		return execution{}, fmt.Errorf("inject: %s after %d retries: %s",
			out.run.Status, out.run.Retries, out.run.Err)
	}
	return out, nil
}

// execute performs one injector run, catching the exception that escapes
// the workload's top level. The first pass is settled (settle): a
// predicted pass that missed is redone unpredicted, and under fingerprint
// snapshots the diffs of the run's non-atomic marks are recovered by a
// targeted capture replay, so the result is byte-identical to an
// all-capture, every-call campaign.
func execute(p *Program, ex Experiment, opts Options) execution {
	out := executeOnce(p, ex, opts, nil)
	// A supervised attempt that crashed with a foreign panic belongs to
	// the supervisor's retry policy, not to settling: rerunning here would
	// consume a retry the workload's misbehavior hook never sees. The
	// supervisor settles the run it ultimately keeps (see quarantined).
	if opts.supervised() && out.run.Escaped != nil && out.run.Escaped.Foreign {
		return out
	}
	return settle(out, p, ex, opts, nil)
}

// executeOnce is one attempt of execute on a fresh session bound to the
// calling goroutine (core.Session.Bind), so any number of runs may proceed
// concurrently on different goroutines; diffCalls restricts its snapshots
// (core.Config.DiffCalls; nil = every call, or the predicted calls when
// ex.predict is set).
func executeOnce(p *Program, ex Experiment, opts Options, diffCalls map[core.CallID]bool) execution {
	session := newSession(p, ex, opts, diffCalls)
	var escaped *fault.Exception
	session.Bind(func() {
		escaped = runGuarded(workload(p, opts))
	})
	return collect(session, ex, escaped)
}

// settle turns an experiment's first pass into the run the campaign
// records, and is the only place the campaign reruns an experiment. A
// predicted pass that unwound through an unsnapshotted call (a miss) is
// redone with every call snapshotted and the redo adopted, so a workload
// that diverged from its clean run still records exactly the marks of an
// unpredicted campaign. Then fingerprint diffs are recovered
// (recoverDiffs). Reruns never predict. accept, when non-nil, vets each
// rerun; a rejected rerun leaves the run as it was (the supervisor keeps a
// flaky crasher's original).
func settle(out execution, p *Program, ex Experiment, opts Options, accept func(Run) bool) execution {
	ex.predict = nil
	if out.missed {
		full := executeOnce(p, ex, opts, nil)
		if accept == nil || accept(full.run) {
			full.missed = true
			out = full
		}
	}
	return recoverDiffs(out, p, ex, opts, accept)
}

// recoverDiffs fills in Mark.Diff for every non-atomic mark a
// fingerprint-mode execution left diffless. The run is replayed once on a
// capture session that snapshots only the marked calls (every other call
// still runs its exit handler, so Seq numbering and the oblivious swallow
// boundary are unchanged); each recovered Diff is copied into out's mark
// with the same Seq, and everything else out recorded is kept. If the
// replay diverged — a target mark is missing, sits at another call, or
// reads atomic — the run is replayed again with every call captured and
// that replay is adopted wholesale. accept vets each replay as in settle.
func recoverDiffs(out execution, p *Program, ex Experiment, opts Options, accept func(Run) bool) execution {
	if opts.Snapshot != core.SnapshotFingerprint {
		return out
	}
	targets := diffTargets(out)
	if targets == nil {
		return out
	}
	opts.Snapshot = core.SnapshotCapture
	replay := executeOnce(p, ex, opts, targets)
	if accept != nil && !accept(replay.run) {
		return out
	}
	if patchDiffs(out, replay, len(targets)) {
		return out
	}
	full := executeOnce(p, ex, opts, nil)
	if accept != nil && !accept(full.run) {
		return out
	}
	// The full replay replaces the run; only the miss telemetry of the
	// discarded passes carries over.
	full.missed = out.missed
	return full
}

// diffTargets returns the call identities of an execution's non-atomic
// marks that carry no diff path, or nil when there are none. Capture-mode
// non-atomic marks always carry a non-empty Diff, so this is precisely
// what the recovery replay must snapshot.
func diffTargets(out execution) map[core.CallID]bool {
	var targets map[core.CallID]bool
	for i, m := range out.run.Marks {
		if !m.Atomic && m.Diff == "" {
			if targets == nil {
				targets = make(map[core.CallID]bool)
			}
			targets[out.markCalls[i]] = true
		}
	}
	return targets
}

// patchDiffs copies a targeted replay's diffs into out's marks by Seq. It
// reports false, leaving out untouched, unless the replay marked exactly
// the targets, each at the same Seq and call as in out, and non-atomic.
// (A targeted session marks only target calls, and a call marks at most
// once, so matching calls at every replayed mark plus matching counts
// cover every target.)
func patchDiffs(out, replay execution, targets int) bool {
	marks := out.run.Marks
	if len(replay.run.Marks) != targets {
		return false
	}
	for j, m := range replay.run.Marks {
		i := m.Seq - 1
		if m.Atomic || i < 0 || i >= len(marks) || marks[i].Seq != m.Seq || out.markCalls[i] != replay.markCalls[j] {
			return false
		}
	}
	for _, m := range replay.run.Marks {
		marks[m.Seq-1].Diff = m.Diff
	}
	return true
}

// runGuarded invokes the workload and converts an escaping panic into the
// exception it carries.
func runGuarded(run func()) (escaped *fault.Exception) {
	defer func() {
		if r := recover(); r != nil {
			escaped = fault.From(r)
		}
	}()
	run()
	return nil
}
