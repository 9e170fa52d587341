package inject

import (
	"context"
	"fmt"
	"time"

	"failatomic/internal/fault"
)

// Per-run supervision (TripleAgent-style: supervise the program under
// injection rather than trust it). Each attempt executes on its own
// goroutine with its worker's session bound to it; the supervisor waits
// for the result, the watchdog deadline, or cancellation, then retries
// with capped backoff and finally quarantines the point.
//
// Goroutine leak: Go cannot kill a goroutine, so an expired attempt is
// abandoned, not stopped. The leak is bounded by (MaxRetries+1) abandoned
// attempts per quarantined point, and quarantined points are bounded by
// MaxQuarantined (or the point space). An attempt is one goroutine, plus
// any its experiment's executor started and left blocked (a concurrent
// schedule's driver and worker goroutines). An abandoned goroutine keeps the
// session it was handed and may go on using it, so the worker never gets
// that session back: the attempt takes the worker's session and
// per-experiment buffers with it, the supervisor returns them to the
// worker only from an attempt that finished, and the next attempt after a
// hang (or after a panic in the engine itself, which may have left the
// session mid-call) starts on a fresh session. Because bindings are
// goroutine-keyed (core.Session.Bind) and no session is ever shared, an
// abandoned goroutine can never touch another run's session, which is
// what makes abandoning safe at all. It may still read the campaign's
// span index, though, and its session outlives the campaign; so a worker
// that abandoned an attempt marks itself abandoned, is never given back
// to the idle stack, and its campaign returns none of the index's
// captures (see Campaign).

// Retry backoff: capped exponential, small because injector runs are
// typically sub-millisecond and a flaky point usually needs only a beat.
const (
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffCap  = 250 * time.Millisecond
)

// attemptVerdict classifies one supervised attempt.
type attemptVerdict int

const (
	attemptOK attemptVerdict = iota
	attemptHung
	attemptCrashed
)

// supervise runs one experiment under the watchdog/retry/quarantine
// policy. A quarantined run is reported through the returned run's
// Status, not an error; the error return is reserved for cancellation.
func (w *worker) supervise(ctx context.Context, p *Program, ex Experiment, opts Options) (execution, error) {
	for attempt := 0; ; attempt++ {
		out, verdict, err := w.superviseAttempt(ctx, p, ex, opts)
		if err != nil {
			return execution{}, err
		}
		if verdict == attemptOK {
			out.run.Retries = attempt
			return out, nil
		}
		if attempt >= opts.MaxRetries {
			return w.quarantined(p, ex, verdict, attempt, out, opts), nil
		}
		if err := backoff(ctx, attempt); err != nil {
			return execution{}, err
		}
	}
}

// attempt is what one supervised attempt hands back: its execution, and
// the worker state it ran on when that state may be reused (nil after a
// panic in the engine).
type attempt struct {
	out execution
	own *worker
}

// superviseAttempt executes one attempt on its own goroutine, on the
// worker's session and buffers, and waits for it, the deadline, or
// cancellation. The attempt owns them until it finishes; the worker gets
// them back only then (see the header comment).
func (w *worker) superviseAttempt(ctx context.Context, p *Program, ex Experiment, opts Options) (execution, attemptVerdict, error) {
	own := &worker{session: w.session, calls: w.calls, diffs: w.diffs, stats: w.stats}
	w.session, w.calls, w.diffs, w.stats = nil, nil, nil, nil
	// Buffered so an attempt finishing after abandonment parks its result
	// and exits instead of leaking on the send.
	ch := make(chan attempt, 1)
	go func() {
		defer func() {
			// runGuarded already catches workload panics; this catches a
			// panic in the engine itself (session setup, mark collection)
			// so it quarantines the point instead of killing the process.
			if r := recover(); r != nil {
				run := ex.Key.run()
				run.Escaped = fault.From(r)
				ch <- attempt{out: execution{run: run}}
			}
		}()
		out := own.execute(p, ex, opts)
		ch <- attempt{out: out, own: own}
	}()
	var expire <-chan time.Time
	if opts.RunTimeout > 0 {
		t := time.NewTimer(opts.RunTimeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case a := <-ch:
		if a.own != nil {
			w.session, w.calls, w.diffs, w.stats = a.own.session, a.own.calls, a.own.diffs, a.own.stats
		}
		out := a.out
		if e := out.run.Escaped; e != nil && e.Foreign {
			return out, attemptCrashed, nil
		}
		return out, attemptOK, nil
	case <-expire:
		w.abandoned = true
		return execution{}, attemptHung, nil
	case <-ctx.Done():
		w.abandoned = true
		return execution{}, attemptHung, fmt.Errorf("inject: campaign interrupted at %s: %w", ex.Key, ctx.Err())
	}
}

// quarantined builds the run recorded for a point the supervisor gave up
// on. A crashed run keeps its observations (Escaped carries the foreign
// panic's stack) for triage — the classifier skips them via Status. A
// hung run keeps nothing: its session is still owned by the abandoned
// goroutine and must not be read.
func (w *worker) quarantined(p *Program, ex Experiment, verdict attemptVerdict, retries int, last execution, opts Options) execution {
	if verdict == attemptHung {
		run := ex.Key.run()
		run.Status = RunHung
		run.Retries = retries
		run.Err = fmt.Sprintf("run exceeded RunTimeout %v", opts.RunTimeout)
		return execution{run: run}
	}
	// The crashed run's marks are kept for triage, so it is settled here
	// like every other run (a predicted pass that missed is redone, and
	// fingerprint-mode diffs are recovered by the targeted replay) — but a
	// rerun is adopted only if it reproduces a foreign crash (a
	// deterministic crasher does; a flaky one keeps its original rather
	// than observations from a run it never had).
	last = w.settle(last, p, ex, opts, func(r Run) bool {
		return r.Escaped != nil && r.Escaped.Foreign
	})
	last.run.Status = RunUndetermined
	last.run.Retries = retries
	last.run.Err = "foreign panic: " + last.run.Escaped.Error()
	return last
}

// backoff sleeps between retry attempts, abandoning early on cancellation.
func backoff(ctx context.Context, attempt int) error {
	d := retryBackoffBase << uint(attempt)
	if d <= 0 || d > retryBackoffCap {
		d = retryBackoffCap
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("inject: campaign interrupted: %w", ctx.Err())
	}
}
