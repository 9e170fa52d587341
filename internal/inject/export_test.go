package inject

import (
	"context"
	"reflect"

	"failatomic/internal/checkpoint"
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
// wrappers of opts.MaskStrategy (DeepCopy when nil).
func PredictedMismatch(p *Program, opts Options) (PredictedComparison, error) {
	var cmp PredictedComparison
	clean, err := cleanRun(context.Background(), p, opts)
	if err != nil {
		return cmp, err
	}
	inner := opts.MaskStrategy
	if inner == nil {
		inner = checkpoint.DeepCopy()
	}
	predicted := &countingStrategy{Strategy: inner, n: &cmp.PredictedCaptures}
	full := &countingStrategy{Strategy: inner, n: &cmp.FullCaptures}
	for _, ex := range planExperiments(clean.profile(p), opts, clean.spans) {
		opts.MaskStrategy = predicted
		got := executeOnce(p, ex, opts, nil)
		if got.missed {
			cmp.Misses++
		}
		ex.predict = nil
		opts.MaskStrategy = full
		want := executeOnce(p, ex, opts, nil)
		if cmp.Mismatch == "" && (!reflect.DeepEqual(got.run, want.run) || !reflect.DeepEqual(got.markCalls, want.markCalls) ||
			got.points != want.points || !reflect.DeepEqual(got.calls, want.calls)) {
			cmp.Mismatch = ex.Key.String()
		}
	}
	return cmp, nil
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
