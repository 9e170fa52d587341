package inject

import (
	"context"
	"reflect"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
)

// PredictedComparison is what PredictedMismatch observed.
type PredictedComparison struct {
	// Mismatch is the key of the first experiment whose two passes
	// recorded different observations ("" when none).
	Mismatch string
	// Misses counts the predicted passes that missed.
	Misses int
	// PredictedCaptures and FullCaptures count the masking checkpoints
	// the predicted and the every-call passes captured.
	PredictedCaptures, FullCaptures int
}

// PredictedMismatch runs p's clean run, then every experiment of the
// campaign plan opts describes twice as a single first pass: predicted
// from the clean run's spans, as a campaign runs it, and with every call
// snapshotted and checkpointed. Both passes checkpoint through counting
// wrappers of checkpoint.New.
func PredictedMismatch(p *Program, opts Options) (PredictedComparison, error) {
	var cmp PredictedComparison
	clean, err := cleanRun(context.Background(), p, opts)
	if err != nil {
		return cmp, err
	}
	inner := checkpoint.New()
	predicted := &countingStrategy{Strategy: inner, n: &cmp.PredictedCaptures}
	full := &countingStrategy{Strategy: inner, n: &cmp.FullCaptures}
	var w worker
	for _, ex := range planExperiments(clean.profile(p), opts, core.IndexSpans(clean.spans)) {
		w.begin()
		opts.maskStrategy = predicted
		got := w.executeOnce(p, ex, opts, nil)
		gotCalls := w.session.Calls()
		if got.missed {
			cmp.Misses++
		}
		ex.predict = nil
		opts.maskStrategy = full
		want := w.executeOnce(p, ex, opts, nil)
		if cmp.Mismatch == "" && (!reflect.DeepEqual(got.run, want.run) || !reflect.DeepEqual(got.markCalls, want.markCalls) ||
			!reflect.DeepEqual(got.maskStats(), want.maskStats()) ||
			got.points != want.points || !reflect.DeepEqual(gotCalls, w.session.Calls())) {
			cmp.Mismatch = ex.Key.String()
		}
	}
	return cmp, nil
}

// cleanRun performs p's clean run on a fresh worker.
func cleanRun(ctx context.Context, p *Program, opts Options) (execution, error) {
	return new(worker).cleanRun(ctx, p, opts)
}

// maskStats is the execution's masking overhead by method name.
func (e execution) maskStats() map[string]core.MaskStat {
	return core.MaskTotals(e.stats).Named()
}

// execute runs one experiment, settled, on a fresh worker: what a
// campaign worker's first run does.
func execute(p *Program, ex Experiment, opts Options) execution {
	return new(worker).execute(p, ex, opts)
}

// executeOnce runs one experiment's first pass on a fresh worker.
func executeOnce(p *Program, ex Experiment, opts Options, diffCalls map[core.CallID]bool) execution {
	return new(worker).executeOnce(p, ex, opts, diffCalls)
}

// countingStrategy counts the checkpoints its strategy captures.
type countingStrategy struct {
	checkpoint.Strategy
	n *int
}

func (c *countingStrategy) Capture(roots ...any) (checkpoint.Handle, error) {
	*c.n++
	return c.Strategy.Capture(roots...)
}
