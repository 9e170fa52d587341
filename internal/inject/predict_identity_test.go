package inject_test

import (
	"context"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/detect"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
)

// TestAppsPredictedSnapshotsMatchEveryCall pins predicted snapshots and
// checkpoints on every bundled application: each default-sweep and
// oblivious run at Repeats 1 and 2 — unmasked, and with the app's §4.3
// wrap plan masked as the verification re-campaign runs it — snapshotting
// and checkpointing only the calls the clean run's spans predict can
// unwind, records exactly the observations (MaskStats included) of the
// same run with every call snapshotted and checkpointed, and no predicted
// run misses. A masked predicted pass must capture fewer checkpoints.
func TestAppsPredictedSnapshotsMatchEveryCall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every threshold experiment of 16 applications four times")
	}
	heavy := map[string]bool{"RegExp": true, "HashedMap": true, "RBTree": true, "RBMap": true}
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			if slowBuild && heavy[app.Name] {
				t.Skip("heavy campaign; covered by the plain build")
			}
			for _, repeats := range []int{1, 2} {
				opts := inject.Options{Repeats: repeats, Perturbations: []inject.Perturbation{inject.Oblivious{}}}
				checkPredicted(t, app.Build(), opts, "unmasked")

				res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{Repeats: repeats})
				if err != nil {
					t.Fatal(err)
				}
				opts.Mask = mask.Build(detect.Classify(res, detect.Options{}), nil, mask.Policy{}).WrapSet()
				if len(opts.Mask) == 0 {
					continue
				}
				cmp := checkPredicted(t, app.Build(), opts, "masked")
				if cmp.PredictedCaptures >= cmp.FullCaptures {
					t.Fatalf("Repeats=%d masked: predicted passes captured %d checkpoints, every-call passes %d",
						repeats, cmp.PredictedCaptures, cmp.FullCaptures)
				}
			}
		})
	}
}

// checkPredicted runs inject.PredictedMismatch and fails t on a mismatch or a miss.
func checkPredicted(t *testing.T, p *inject.Program, opts inject.Options, mode string) inject.PredictedComparison {
	t.Helper()
	cmp, err := inject.PredictedMismatch(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Mismatch != "" {
		t.Fatalf("Repeats=%d %s: predicted %s differs from the every-call run", opts.Repeats, mode, cmp.Mismatch)
	}
	if cmp.Misses != 0 {
		t.Fatalf("Repeats=%d %s: %d predicted runs missed on a deterministic workload", opts.Repeats, mode, cmp.Misses)
	}
	return cmp
}
