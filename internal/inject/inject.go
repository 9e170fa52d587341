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
	// campaign. A campaign relies on each invocation repeating the clean
	// run's (the first one's) until its injection fires: predicted runs
	// skip the snapshots and checkpoints of calls that cannot unwind, and
	// take the before- and after-fingerprints of calls reached before the
	// injection from the clean run (core.Config.Predict). A workload that
	// diverges anyway is detected where it shows (a call entered or
	// unwound at another point is hashed, one unwound unpredicted is
	// redone), not everywhere it could.
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

// Run records one execution of the exception injector program. Marks is
// the run's own copy; the run's masking statistics are summed into its
// campaign's Result (MaskStatTotals) instead of being kept per run.
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
	// Concur records what a concurrent schedule observed (per-worker
	// operation history, final abstract state, linearization verdict); nil
	// for every single-threaded run.
	Concur *ConcurOutcome `json:"concur,omitempty"`
}

// Quarantine summarizes one point the supervisor gave up on.
type Quarantine struct {
	// InjectionPoint is the quarantined run's primary point coordinate.
	InjectionPoint int
	// Strategy/Arg/Sched complete the quarantined run's RunKey.
	Strategy string `json:"strategy,omitempty"`
	Arg      int    `json:"arg,omitempty"`
	Sched    int    `json:"sched,omitempty"`
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
	// DiffReplays counts the diff-recovery replays executed (recoverDiffs),
	// full-capture fallbacks included: the re-executions paid for the
	// Mark.Diff paths a fingerprint campaign could not read off its clean
	// run. Operational telemetry only: it is not serialized into reports
	// or journals.
	DiffReplays int

	// maskTotals sums the per-method masking overhead of the runs this
	// process executed (MaskStatTotals).
	maskTotals core.MaskTotals
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
	// Serialize holds a session-global lock across each instrumented call
	// (§4.4's concurrency mitigation) for workloads that spawn goroutines.
	// A run's goroutines inherit its session binding, so their calls are
	// observed like the workload's own.
	Serialize bool
	// Snapshot selects the session snapshot engine. The default,
	// core.SnapshotFingerprint, compares streaming 128-bit graph hashes
	// around the snapshotted wrapped calls (threshold experiments snapshot
	// only the calls the clean run's spans predict can unwind, see
	// core.SpanIndex; the others snapshot every call). The human-readable
	// Mark.Diff of a non-atomic mark is read off the clean run's capture
	// of the call when the call entered from the clean fingerprint;
	// otherwise the run is deterministically replayed with capture
	// snapshots at exactly the still-diffless calls and the recovered
	// paths are patched into the run (see recoverDiffs) — reports and
	// journals stay byte-identical to capture mode. If that replay
	// diverges, the run is replayed with every call captured and the
	// replay is adopted. Every snapshot is one cold objgraph.Fingerprint
	// traversal. core.SnapshotCapture materializes full graphs at every
	// snapshotted call; no user surface selects it. It is the engine of
	// the diff-recovery replays, the reference of the fingerprint =
	// capture identity tests, and a fabench cell.
	Snapshot core.SnapshotMode
	// Parallelism is the number of worker goroutines exploring injection
	// points concurrently (0 or 1 = one worker). Every run binds its
	// worker's session to its goroutine (core.Session.Bind), so campaigns
	// never contend for the global session slot and may share a process
	// with each other and with an installed Protect session; Runs are
	// merged in plan order, making the result independent of Parallelism
	// over a deterministic workload.
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
	// maskStrategy is every run's core.Config.Strategy: a test seam.
	maskStrategy checkpoint.Strategy
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
// threshold each time exactly as in Step 3. Sweep runs everything after
// the clean run.
//
// The clean run's worker is held until the campaign ends. Then, unless a
// supervised attempt was abandoned (its goroutine may still read the span
// index), the clean captures the index keeps go back to that worker's
// session (core.Session.Reclaim) before the worker goes back on the idle
// stack, so the next campaign's clean run draws its captures from them.
func Campaign(ctx context.Context, p *Program, opts Options) (*Result, error) {
	if p == nil || p.Run == nil {
		return nil, errors.New("inject: program must have a Run function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The clean run must finish first — it sizes the injection space.
	cw := takeWorker()
	defer cw.giveBack()
	clean, err := cw.cleanRun(ctx, p, opts)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	res := &Result{
		Program:     p,
		CleanCalls:  clean.calls,
		TotalPoints: clean.points,
		DiffReplays: clean.replays,
	}
	res.maskTotals.Add(clean.stats)
	exps := planExperiments(clean.profile(p), opts, core.IndexSpans(clean.spans))
	abandoned, err := sweep(ctx, res, clean.run, exps, opts)
	if !abandoned && !cw.abandoned {
		cw.session.Reclaim(clean.spans)
		reclaims.Add(1)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Sweep runs a campaign's planned experiments after its clean run, the
// loop every campaign driver shares; res already carries the clean run's
// Program, CleanCalls and TotalPoints. It enforces the run budget,
// validates the resume journal against exps, streams the clean run to
// OnRun, then executes (or splices) every experiment and tallies the
// result. Every run constructs fresh objects and starts from a reset
// session, so the run space is embarrassingly parallel: max(1,
// min(Parallelism, len(exps))) workers claim experiments from an atomic
// cursor, and the runs are merged in plan order, so a deterministic
// workload yields the same Result at any Parallelism. Each goroutine takes
// a worker off the process's idle stack and keeps its one private session
// for the whole campaign: every run it executes, settle and replay reruns
// included, resets that session (core.Session.Reset) and binds it to the
// goroutine (core.Session.Bind), so the session's frame stack, method
// slots, walker and checkpoint free lists are reused while everything a
// run returns is its own. The worker sums the masking statistics of the
// runs it records, and the sums are merged into the Result once. When the
// campaign ends every worker goes back on the idle stack for the next
// campaign, except one whose session a supervised attempt abandoned. The
// context cancels the campaign between runs (and mid-run when
// supervised); runs already streamed to Options.OnRun survive for resume.
//
// Failure handling is two-tier: per-point failures (hangs, foreign-panic
// crashes) are retried and quarantined by the supervisor and never stop
// the campaign by themselves; only campaign-level failures — cancellation,
// a blown quarantine budget, a journal write error — stop every worker.
func Sweep(ctx context.Context, res *Result, clean Run, exps []Experiment, opts Options) error {
	_, err := sweep(ctx, res, clean, exps, opts)
	return err
}

// sweep is Sweep, reporting also whether a supervised attempt was
// abandoned: its goroutine may still be running on the experiments' span
// index.
func sweep(ctx context.Context, res *Result, clean Run, exps []Experiment, opts Options) (abandoned bool, err error) {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRuns
	}
	if err := checkBudget(len(exps), maxRuns); err != nil {
		return false, err
	}
	if err := validateCompleted(opts.Completed, exps, res.TotalPoints); err != nil {
		return false, err
	}
	if _, journaled := opts.Completed[RunKey{}]; !journaled {
		if err := notifyRun(opts, clean); err != nil {
			return false, err
		}
	}

	// res.Runs[i] is written by exactly one worker; index 0 is the clean
	// run and index i is experiment exps[i-1]. The telemetry sums do not
	// depend on the order the runs finish in.
	res.Runs = make([]Run, len(exps)+1)
	res.Runs[0] = clean
	var (
		next        atomic.Int64 // next experiment index to claim (1-based)
		quarantines atomic.Int64 // early-stop mirror of the merge-time tally
		misses      atomic.Int64 // runs whose predicted pass missed
		replays     atomic.Int64 // diff-recovery replays
		stop        atomic.Bool  // campaign-level cancellation flag
		errOnce     sync.Once
		firstErr    error
		wg          sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	workers := make([]*worker, max(1, min(opts.Parallelism, len(exps))))
	for i := range workers {
		w := takeWorker()
		workers[i] = w
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
				w.begin()
				out, journaled, err := w.experimentRun(ctx, res.Program, ex, opts)
				if err != nil {
					fail(fmt.Errorf("injection %s: %w", ex.Key, err))
					return
				}
				res.Runs[i] = out.run
				w.totals.Add(out.stats)
				if out.missed {
					misses.Add(1)
				}
				replays.Add(int64(out.replays))
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
	for _, w := range workers {
		res.maskTotals.Add(w.totals)
		abandoned = abandoned || w.abandoned
		w.giveBack()
	}
	if firstErr != nil {
		return abandoned, firstErr
	}

	res.PredictMisses += int(misses.Load())
	res.DiffReplays += int(replays.Load())

	// Deterministic merge: Injections, warnings and quarantines are
	// accumulated in plan order regardless of which worker ran which
	// experiment.
	t := tally{res: res, max: opts.MaxQuarantined}
	for _, run := range res.Runs {
		if err := t.add(run); err != nil {
			return abandoned, err
		}
	}
	t.finish()
	return abandoned, nil
}

// experimentRun produces the execution for one planned experiment:
// spliced from the resume journal if present, otherwise executed (under
// the supervisor when one is configured). The bool reports whether the
// run was spliced.
func (w *worker) experimentRun(ctx context.Context, p *Program, ex Experiment, opts Options) (execution, bool, error) {
	if run, ok := opts.Completed[ex.Key]; ok {
		return execution{run: run}, true, nil
	}
	if opts.supervised() {
		out, err := w.supervise(ctx, p, ex, opts)
		return out, false, err
	}
	return w.execute(p, ex, opts), false, nil
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
// under a different perturbation list or schedule plan.
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
		if key.Sched != 0 {
			return fmt.Errorf("inject: resume journal holds %s outside this campaign's schedule plan (different -concur workers/sched or -seed?)", key)
		}
		return fmt.Errorf("inject: resume journal holds %s outside this campaign's experiment plan (different -perturb options or wrong journal?)", key)
	}
	return nil
}

// tally accumulates the bookkeeping a run adds to the Result: injections,
// dead-point warnings, quarantines and the quarantine budget.
type tally struct {
	res         *Result
	dead        deadPointWarnings
	quarantined int
	max         int
}

func (t *tally) add(run Run) error {
	if run.Key() == (RunKey{}) {
		return nil
	}
	if run.Status != RunOK {
		t.quarantined++
		t.res.Quarantined = append(t.res.Quarantined, run.Quarantine())
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

// Quarantine summarizes a quarantined run for the campaign report.
func (run Run) Quarantine() Quarantine {
	q := Quarantine{
		InjectionPoint: run.InjectionPoint,
		Strategy:       run.Strategy,
		Arg:            run.Arg,
		Sched:          run.Sched,
		Status:         run.Status,
		Retries:        run.Retries,
		Err:            run.Err,
	}
	if run.Escaped != nil {
		q.Kind = run.Escaped.Kind
	}
	return q
}

// Key returns the quarantined run's identity within its campaign.
func (q Quarantine) Key() RunKey {
	return RunKey{Strategy: q.Strategy, Point: q.InjectionPoint, Arg: q.Arg, Sched: q.Sched}
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

// execution is one pass of an experiment. Its markCalls, diffs and stats
// are slices of its worker's per-experiment buffers: read in place, valid
// until the worker begins its next experiment.
type execution struct {
	run Run
	// markCalls is the call identity of each of run.Marks (index-aligned),
	// the key diff recovery matches replayed marks on.
	markCalls []core.CallID
	// diffs are the diff paths a predicted pass read off the clean run's
	// captures (core.Session.AppendMarkDiffs), index-aligned with run.Marks
	// when non-nil.
	diffs []string
	// stats is the per-method masking overhead of the pass; nil unless
	// the campaign masked methods.
	stats []core.MethodStat
	// calls is the per-method call count, read only off the clean run.
	calls  map[string]int64
	points int
	trace  []core.PointInfo
	// spans are the call spans of a span-recording (clean) run: the
	// session's buffer, which the campaign hands back (core.Session.Reclaim).
	spans []core.Span
	// missed reports a predicted first pass that unwound through an
	// unsnapshotted call; a settled execution keeps it set after the redo.
	missed bool
	// replays counts the diff-recovery replays settling executed.
	replays int
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

// sessionConfig is the injector session configuration realizing one
// experiment; diffCalls restricts its Detect snapshots (nil = every call,
// or the predicted calls of a threshold experiment).
func sessionConfig(p *Program, ex Experiment, opts Options, diffCalls map[core.CallID]bool) core.Config {
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
		Strategy:       opts.maskStrategy,
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
	return cfg
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

// collect packages what the worker's finished session observed. The
// marks are the run's own copy; the mark calls, diffs and masking
// statistics go to the worker's buffers.
func (w *worker) collect(ex Experiment, escaped *fault.Exception) execution {
	session := w.session
	run := ex.Key.run()
	run.Injected = session.Injected()
	run.Escaped = escaped
	run.Marks = session.Marks()
	nc, nd, ns := len(w.calls), len(w.diffs), len(w.stats)
	w.calls = session.AppendMarkCalls(w.calls)
	w.diffs = session.AppendMarkDiffs(w.diffs)
	w.stats = session.AppendMaskStats(w.stats)
	out := execution{
		run:       run,
		markCalls: appended(w.calls, nc),
		diffs:     appended(w.diffs, nd),
		stats:     appended(w.stats, ns),
		points:    session.Point(),
		trace:     session.PointTrace(),
		spans:     session.Spans(),
		missed:    session.PredictMisses() > 0,
	}
	if ex.spans {
		// The clean profiling run: its call counts are the only ones read.
		out.calls = session.Calls()
	}
	return out
}

// MaskStatTotals sums the per-method masking overhead across the runs this
// process executed (spliced runs carry none); nil when nothing was masked.
func (r *Result) MaskStatTotals() map[string]core.MaskStat {
	return r.maskTotals.Named()
}

// cleanRun performs the space-sizing clean execution on w, the clean
// worker Campaign holds until its sweep ends: the execution's spans are
// w's session's buffer and keep the clean captures the campaign's span
// index shares. Supervised campaigns run it under the watchdog, but a
// clean run that still hangs or crashes after its retries is a hard
// error — without it there is no point space to quarantine within.
func (w *worker) cleanRun(ctx context.Context, p *Program, opts Options) (execution, error) {
	if err := ctx.Err(); err != nil {
		return execution{}, err
	}
	ex := cleanExperiment(opts)
	w.begin()
	if !opts.supervised() {
		return w.execute(p, ex, opts), nil
	}
	out, err := w.supervise(ctx, p, ex, opts)
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
// the workload's top level (an experiment with its own executor runs that
// instead, and its run is recorded as returned). The first pass is
// settled (settle): a predicted pass that missed is redone unpredicted,
// and under fingerprint snapshots the diffs of the run's non-atomic marks
// are recovered by a targeted capture replay, so the result is
// byte-identical to an all-capture, every-call campaign.
func (w *worker) execute(p *Program, ex Experiment, opts Options) execution {
	if ex.Exec != nil {
		return execution{run: ex.Exec()}
	}
	out := w.executeOnce(p, ex, opts, nil)
	// A supervised attempt that crashed with a foreign panic belongs to
	// the supervisor's retry policy, not to settling: rerunning here would
	// consume a retry the workload's misbehavior hook never sees. The
	// supervisor settles the run it ultimately keeps (see quarantined).
	if opts.supervised() && out.run.Escaped != nil && out.run.Escaped.Foreign {
		return out
	}
	return w.settle(out, p, ex, opts, nil)
}

// executeOnce is one attempt of execute on the worker's reset session,
// bound to the calling goroutine (core.Session.Bind), so any number of
// workers may run concurrently on different goroutines; diffCalls
// restricts its snapshots (core.Config.DiffCalls; nil = every call, or the
// predicted calls when ex.predict is set).
func (w *worker) executeOnce(p *Program, ex Experiment, opts Options, diffCalls map[core.CallID]bool) execution {
	session := w.start(sessionConfig(p, ex, opts, diffCalls))
	var escaped *fault.Exception
	session.Bind(func() {
		escaped = runGuarded(workload(p, opts))
	})
	return w.collect(ex, escaped)
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
func (w *worker) settle(out execution, p *Program, ex Experiment, opts Options, accept func(Run) bool) execution {
	ex.predict = nil
	if out.missed {
		full := w.executeOnce(p, ex, opts, nil)
		if accept == nil || accept(full.run) {
			full.missed = true
			out = full
		}
	}
	return w.recoverDiffs(out, p, ex, opts, accept)
}

// recoverDiffs fills in Mark.Diff for every non-atomic mark a
// fingerprint-mode execution left diffless. First it adopts the paths a
// predicted first pass read off the clean run's captures (out.diffs, see
// core.Session.MarkDiffs); on the bundled apps that covers most
// non-atomic marks. The marks still diffless — calls entered after the
// injection whose state diverged from the clean run's, and any whose
// clean capture was dropped or differs — are recovered by replaying the
// run once on a capture session that snapshots only those calls (every
// other call still runs its exit handler, so Seq numbering and the
// oblivious swallow boundary are unchanged); each recovered Diff is copied
// into out's mark with the same Seq, and everything else out recorded is
// kept. If the replay diverged — a target mark is missing, sits at another
// call, or reads atomic — the run is replayed again with every call
// captured and that replay is adopted wholesale. accept vets each replay
// as in settle; a vetted (quarantined) run adopts no clean-run paths and
// recovers every diff by replay.
func (w *worker) recoverDiffs(out execution, p *Program, ex Experiment, opts Options, accept func(Run) bool) execution {
	if opts.Snapshot != core.SnapshotFingerprint {
		return out
	}
	if accept == nil {
		for i, d := range out.diffs {
			if d != "" {
				out.run.Marks[i].Diff = d
			}
		}
	}
	targets := diffTargets(out)
	if targets == nil {
		return out
	}
	opts.Snapshot = core.SnapshotCapture
	replay := w.executeOnce(p, ex, opts, targets)
	out.replays++
	if accept != nil && !accept(replay.run) {
		return out
	}
	if patchDiffs(out, replay, len(targets)) {
		return out
	}
	full := w.executeOnce(p, ex, opts, nil)
	out.replays++
	if accept != nil && !accept(full.run) {
		return out
	}
	// The full replay replaces the run; only the telemetry of the
	// discarded passes carries over.
	full.missed, full.replays = out.missed, out.replays
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
