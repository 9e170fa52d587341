// Snapshot metrics: in-process campaign jobs surface fingerprint cache
// effectiveness and predicted-snapshot misses on /metrics.
package serve_test

import (
	"context"
	"testing"

	"failatomic/internal/serve"
)

// TestSnapshotCacheMetrics: a detect job under the default fingerprint
// engine reports its cache traffic. The bundled app graphs are small, so
// subtree replay rarely engages (hits may stay 0), but every first-seen
// root is a miss — the counter keys must exist and misses must move.
func TestSnapshotCacheMetrics(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}

	m := fetchMetrics(t, url)
	for _, key := range []string{"snapshot_cache_hits_total", "snapshot_cache_misses_total", "snapshot_cache_bytes", "snapshot_predict_misses_total"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics lacks %s", key)
		}
	}
	// The bundled workloads are deterministic: no predicted run diverges.
	if got := m["snapshot_predict_misses_total"]; got != 0 {
		t.Errorf("snapshot_predict_misses_total = %d, want 0", got)
	}
	if m["snapshot_cache_misses_total"] <= 0 {
		t.Errorf("snapshot_cache_misses_total = %d, want > 0", m["snapshot_cache_misses_total"])
	}
	if m["snapshot_cache_hits_total"] < 0 || m["snapshot_cache_bytes"] < 0 {
		t.Errorf("negative cache counters: hits=%d bytes=%d",
			m["snapshot_cache_hits_total"], m["snapshot_cache_bytes"])
	}

	// The capture engine runs without a cache, so it must not move the
	// counters.
	before := m["snapshot_cache_misses_total"]
	id, err = c.Submit(ctx, serve.JobSpec{App: "HashedSet", Snapshot: "capture"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if after := fetchMetrics(t, url)["snapshot_cache_misses_total"]; after != before {
		t.Errorf("capture job moved snapshot_cache_misses_total: %d -> %d", before, after)
	}
}
