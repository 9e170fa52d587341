package inject

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// parallelCampaign is the Parallelism > 1 implementation of Campaign.
// Each injector run constructs fresh objects and its own session, so the
// campaign space (one run per injection point, Step 3) is embarrassingly
// parallel; the only shared state the sequential design had was the
// exclusive global session slot. Workers here bind a private session to
// their goroutine instead (core.Session.Bind) and claim points from an
// atomic cursor; results are merged in point order, so a deterministic
// workload yields a Result identical to the sequential campaign's.
//
// Failure handling is two-tier: per-point failures (hangs, foreign-panic
// crashes) are retried and quarantined by the supervisor and never cancel
// the pool by themselves; only campaign-level failures — cancellation, a
// blown run or quarantine budget, a journal write error — stop every
// worker.
func parallelCampaign(ctx context.Context, p *Program, opts Options, maxRuns int) (*Result, error) {
	// The clean run must finish first — it sizes the injection space.
	clean, err := cleanRun(ctx, p, opts, true)
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

	total := len(exps)
	workers := opts.Parallelism
	if workers > total {
		workers = total
	}

	// outs[i] is written by exactly one worker; index 0 is the clean run
	// and index i is experiment exps[i-1].
	outs := make([]execution, total+1)
	outs[0] = clean
	var (
		next        atomic.Int64 // next experiment index to claim (1-based)
		budget      atomic.Int64 // executions performed, clean run included
		quarantines atomic.Int64 // early-stop mirror of the merge-time tally
		stop        atomic.Bool  // campaign-level cancellation flag
		errOnce     sync.Once
		firstErr    error
		wg          sync.WaitGroup
	)
	budget.Store(1) // the clean run already spent one execution
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i > total {
					return
				}
				ex := exps[i-1]
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("inject: campaign interrupted before %s: %w", ex.Key, err))
					return
				}
				out, journaled, err := parallelExperimentRun(ctx, p, ex, opts, &budget, maxRuns)
				if err != nil {
					fail(err)
					return
				}
				outs[i] = out
				if out.run.Status != RunOK {
					// Early stop only; the point-order merge below is the
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
	res.Runs = make([]Run, 0, total+1)
	t := tally{res: res, max: opts.MaxQuarantined}
	for _, out := range outs {
		if err := t.add(out); err != nil {
			return nil, err
		}
	}
	t.finish()
	return res, nil
}

// parallelExperimentRun produces one experiment's execution inside a
// worker: spliced from the resume journal (free — no budget spend), or
// executed under the supervisor when one is configured.
func parallelExperimentRun(ctx context.Context, p *Program, ex Experiment, opts Options, budget *atomic.Int64, maxRuns int) (execution, bool, error) {
	if run, ok := opts.Completed[ex.Key]; ok {
		return execution{run: run}, true, nil
	}
	// The up-front checkBudget guard makes this unreachable for a fixed
	// experiment plan; it hard-stops the pool if the plan was undercounted
	// (defense in depth for the shared budget). Retries are deliberately
	// not charged: they are bounded by MaxRetries per experiment.
	if n := budget.Add(1); n > int64(maxRuns) {
		return execution{}, false, fmt.Errorf("%w: execution %d > %d", ErrTooManyRuns, n, maxRuns)
	}
	if opts.supervised() {
		out, err := supervise(ctx, p, ex, opts)
		return out, false, err
	}
	return executeScoped(p, ex, opts), false, nil
}
