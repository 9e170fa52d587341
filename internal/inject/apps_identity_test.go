package inject_test

import (
	"context"
	"reflect"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/core"
	"failatomic/internal/detect"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
)

// TestAppsFingerprintMatchesCapture pins targeted diff recovery on every
// bundled application: a fingerprint campaign — the default sweep plus
// the nth=3, burst, defer and oblivious grids — records runs deeply equal
// to an all-capture campaign, sequentially, in parallel and supervised;
// so does the plain sweep at Repeats=2 and the masking-verification
// re-campaign over the wrap plan.
func TestAppsFingerprintMatchesCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 applications under every campaign mode")
	}
	perturbs, err := inject.ParsePerturbations("nth=3,burst,defer,oblivious")
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		opts inject.Options
	}{
		{"sequential", inject.Options{}},
		{"parallel", inject.Options{Parallelism: 2}},
		{"supervised", inject.Options{MaxRetries: 1}},
	}
	// The four heaviest campaigns take three quarters of the test's time;
	// slow builds leave them to the plain one.
	heavy := map[string]bool{"RegExp": true, "HashedMap": true, "RBTree": true, "RBMap": true}
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			if slowBuild && heavy[app.Name] {
				t.Skip("heavy campaign; covered by the plain build")
			}
			campaign := func(opts inject.Options, snap core.SnapshotMode) *inject.Result {
				t.Helper()
				opts.Snapshot = snap
				res, err := inject.Campaign(context.Background(), app.Build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			assertSame := func(what string, opts inject.Options) *inject.Result {
				t.Helper()
				fp := campaign(opts, core.SnapshotFingerprint)
				capture := campaign(opts, core.SnapshotCapture)
				if !reflect.DeepEqual(fp.Runs, capture.Runs) {
					for i := range fp.Runs {
						if i < len(capture.Runs) && !reflect.DeepEqual(fp.Runs[i], capture.Runs[i]) {
							t.Fatalf("%s: run %s differs from capture:\n got %+v\nwant %+v",
								what, fp.Runs[i].Key(), fp.Runs[i], capture.Runs[i])
						}
					}
					t.Fatalf("%s: %d runs, capture %d", what, len(fp.Runs), len(capture.Runs))
				}
				if fp.PredictMisses != 0 || capture.PredictMisses != 0 {
					t.Fatalf("%s: predicted runs missed (fingerprint %d, capture %d)", what, fp.PredictMisses, capture.PredictMisses)
				}
				return fp
			}
			var base *inject.Result
			for _, m := range modes {
				opts := m.opts
				opts.Perturbations = perturbs
				res := assertSame(m.name, opts)
				if base == nil {
					base = res
				}
			}
			// Repeats=2 is where diff recovery does its most work (RegExp
			// replays 151 runs), and where campaign-heavy runs.
			assertSame("repeat2", inject.Options{Repeats: 2})
			plan := mask.Build(detect.Classify(base, detect.Options{}), nil, mask.Policy{})
			if len(plan.Wrap) > 0 {
				assertSame("masked", inject.Options{Mask: plan.WrapSet()})
			}
		})
	}
}

// TestDiffReplaysRBMap pins the diff-recovery replays of the RBMap
// campaign at Repeats=2. 641 of its runs record a non-atomic mark, and
// each used to cost one replay; the predicted passes read every one of
// those diffs off the clean run's captures, so the only replay left is
// the clean run's own (its organic unwinds have no clean run to read
// from). An all-capture campaign never replays.
func TestDiffReplaysRBMap(t *testing.T) {
	app, ok := apps.ByName("RBMap")
	if !ok {
		t.Fatal("RBMap missing")
	}
	for _, c := range []struct {
		mode core.SnapshotMode
		want int
	}{{core.SnapshotFingerprint, 1}, {core.SnapshotCapture, 0}} {
		res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{Repeats: 2, Snapshot: c.mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.DiffReplays != c.want {
			t.Errorf("%s: DiffReplays = %d, want %d", c.mode, res.DiffReplays, c.want)
		}
	}
}

// TestCampaignTelemetryIndependentOfParallelism pins the campaign merge:
// workers write each run into its plan slot and sum the telemetry in
// order-independent counters, so the RBMap campaign at Repeats=2 records
// the same runs, DiffReplays and PredictMisses with one worker and four.
func TestCampaignTelemetryIndependentOfParallelism(t *testing.T) {
	app, ok := apps.ByName("RBMap")
	if !ok {
		t.Fatal("RBMap missing")
	}
	var results []*inject.Result
	for _, workers := range []int{1, 4} {
		res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{Repeats: 2, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	seq, par := results[0], results[1]
	if par.DiffReplays != seq.DiffReplays || par.PredictMisses != seq.PredictMisses {
		t.Fatalf("4 workers: %d replays, %d misses; 1 worker: %d, %d",
			par.DiffReplays, par.PredictMisses, seq.DiffReplays, seq.PredictMisses)
	}
	if !reflect.DeepEqual(par.Runs, seq.Runs) {
		t.Fatalf("4 workers recorded %d runs that differ from 1 worker's %d", len(par.Runs), len(seq.Runs))
	}
}
