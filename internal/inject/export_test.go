package inject

import (
	"context"
	"reflect"
)

// PredictedMismatch runs p's clean run, then every experiment of the
// campaign plan opts describes twice as a single first pass: predicted
// from the clean run's spans, as a campaign runs it, and with every call
// snapshotted. It returns the key of the first experiment whose two
// passes record different observations ("" when none) and how many
// predicted passes missed.
func PredictedMismatch(p *Program, opts Options) (string, int, error) {
	clean, err := cleanRun(context.Background(), p, opts)
	if err != nil {
		return "", 0, err
	}
	misses := 0
	for _, ex := range planExperiments(clean.profile(p), opts, clean.spans) {
		got := executeOnce(p, ex, opts, nil)
		if got.missed {
			misses++
		}
		ex.predict = nil
		want := executeOnce(p, ex, opts, nil)
		if !reflect.DeepEqual(got.run, want.run) || !reflect.DeepEqual(got.markCalls, want.markCalls) ||
			got.points != want.points || !reflect.DeepEqual(got.calls, want.calls) {
			return ex.Key.String(), misses, nil
		}
	}
	return "", misses, nil
}
