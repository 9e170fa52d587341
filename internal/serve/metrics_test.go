// Snapshot metrics: in-process campaign jobs surface predicted-snapshot
// misses on /metrics.
package serve_test

import (
	"context"
	"testing"

	"failatomic/internal/serve"
)

// TestSnapshotPredictMetrics: after a detect job under the default
// fingerprint engine, /metrics carries snapshot_predict_misses_total, and
// it reads 0 because the bundled workloads are deterministic — no
// predicted run diverges from its clean run.
func TestSnapshotPredictMetrics(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}

	got, ok := fetchMetrics(t, url)["snapshot_predict_misses_total"]
	if !ok {
		t.Fatal("/metrics lacks snapshot_predict_misses_total")
	}
	if got != 0 {
		t.Errorf("snapshot_predict_misses_total = %d, want 0", got)
	}
}

// TestDiffReplaysMetrics: /metrics carries diff_replays_total, the
// diff-recovery replays of in-process detect jobs, and after one job it
// reads that campaign's inject.Result.DiffReplays.
func TestDiffReplaysMetrics(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	spec := fastSpec()
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	local, err := spec.Run(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(local.Result.DiffReplays)
	if want == 0 {
		t.Fatal("the local campaign replayed nothing; the counter is not exercised")
	}
	got, ok := fetchMetrics(t, url)["diff_replays_total"]
	if !ok {
		t.Fatal("/metrics lacks diff_replays_total")
	}
	if got != want {
		t.Errorf("diff_replays_total = %d, want %d", got, want)
	}
}
