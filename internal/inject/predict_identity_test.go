package inject_test

import (
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/inject"
)

// TestAppsPredictedSnapshotsMatchEveryCall pins predicted snapshots on
// every bundled application: each default-sweep and oblivious run at
// Repeats 1 and 2, snapshotting only the calls the clean run's spans
// predict, records exactly the observations of the same run with every
// call snapshotted, and no predicted run misses.
func TestAppsPredictedSnapshotsMatchEveryCall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every threshold experiment of 16 applications twice")
	}
	heavy := map[string]bool{"RegExp": true, "HashedMap": true, "RBTree": true, "RBMap": true}
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			if slowBuild && heavy[app.Name] {
				t.Skip("heavy campaign; covered by the plain build")
			}
			for _, repeats := range []int{1, 2} {
				opts := inject.Options{Repeats: repeats, Perturbations: []inject.Perturbation{inject.Oblivious{}}}
				key, misses, err := inject.PredictedMismatch(app.Build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if key != "" {
					t.Fatalf("Repeats=%d: predicted %s differs from the every-call run", repeats, key)
				}
				if misses != 0 {
					t.Fatalf("Repeats=%d: %d predicted runs missed on a deterministic workload", repeats, misses)
				}
			}
		})
	}
}
