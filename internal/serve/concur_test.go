// Tests for concurrent schedule jobs through the service: kind-first
// admission, byte-identity with local campaigns across both the in-process
// pool and the distributed worker path, and the per-kind metrics.
package serve_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
)

// concurSpec is a small LinkedList schedule campaign.
func concurSpec() serve.JobSpec {
	return serve.JobSpec{App: "LinkedList", Kind: serve.KindConcur, Workers: 4, Schedules: 8, Seed: 1}
}

// localConcurReference renders the same schedule campaign the way a local
// fadetect -concur run would: same driver, same renderer.
func localConcurReference(t *testing.T, spec serve.JobSpec) (log []byte, report string) {
	t.Helper()
	target, ok := concur.ByName(spec.App)
	if !ok {
		t.Fatalf("unknown concurrent target %q", spec.App)
	}
	res, err := concur.Campaign(context.Background(), &target, concur.Options{
		Workers:   spec.Workers,
		Schedules: spec.Schedules,
		Seed:      concur.EffectiveSeed(spec.Seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := replog.Write(&buf, res.Inject); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Report
}

// TestConcurJobByteIdentity: a schedule campaign executed by the
// in-process worker pool stores the same report and log bytes a local
// fadetect -concur run produces.
func TestConcurJobByteIdentity(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 2, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, concurSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.ExitCode != cli.ExitOK {
		t.Fatalf("job = %+v, want done/0", st)
	}

	wantLog, wantReport := localConcurReference(t, concurSpec())
	if !strings.Contains(wantReport, "concurrent detection:") {
		t.Fatal("reference report carries no concur banner")
	}
	gotReport, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != wantReport {
		t.Errorf("stored report differs from local render:\n--- server\n%s\n--- local\n%s", gotReport, wantReport)
	}
	gotLog, err := c.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog, wantLog) {
		t.Error("stored log differs from local replog.Write output")
	}
}

// TestConcurAdmissionValidation: bad schedule specs are rejected at
// submit time, before a worker touches them — and the concur-only fields
// are rejected on single-threaded jobs.
func TestConcurAdmissionValidation(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 4)
	ctx := context.Background()
	bad := []serve.JobSpec{
		{App: "NoSuchTarget", Kind: serve.KindConcur},                 // unknown target
		{App: "LinkedList", Kind: serve.KindConcur, Workers: 1},       // workers out of bounds
		{App: "LinkedList", Kind: serve.KindConcur, Schedules: 5000},  // schedules out of bounds
		{App: "LinkedList", Kind: serve.KindConcur, Perturb: "nth=2"}, // perturb on concur
		{App: "LinkedList", Kind: serve.KindConcur, Repeats: 2},       // repeats on concur
		{App: "HashedSet", Workers: 4},                                // concur knob on a detect job
		{App: "HashedSet", Seed: 7},                                   // seed on a detect job
	}
	for _, spec := range bad {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("spec %+v admitted, want rejection", spec)
		}
	}
	// fadetect sends -repeat's default of 1 with every spec.
	if err := (serve.JobSpec{App: "LinkedList", Kind: serve.KindConcur, Repeats: 1}).Validate(); err != nil {
		t.Errorf("concur spec with repeats 1 rejected: %v", err)
	}
}

// TestConcurMetrics: the admission counter and the per-kind queue-depth
// gauges surface on /metrics.
func TestConcurMetrics(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{DataDir: t.TempDir(), Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	id, err := c.Submit(ctx, concurSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}

	m := fetchMetrics(t, url)
	if m["jobs_concur_total"] < 1 {
		t.Errorf("jobs_concur_total = %d, want >= 1", m["jobs_concur_total"])
	}
	for _, key := range []string{"queue_depth_detect", "queue_depth_repair", "queue_depth_concur"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics lacks %s", key)
		}
	}
}

// TestRemoteWorkerRunsConcurJob: the distributed path — lease a concur
// job, run the schedule campaign in the worker, ship runs keyed by
// schedule coordinate — stays byte-identical to a local campaign.
func TestRemoteWorkerRunsConcurJob(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
		WorkerPoll:      5 * time.Millisecond,
	})
	startWorker(t, url, "w1")
	ctx := context.Background()

	id, err := c.Submit(ctx, concurSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.ExitCode != cli.ExitOK {
		t.Fatalf("remote job: %+v", st)
	}

	wantLog, wantReport := localConcurReference(t, concurSpec())
	gotReport, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != wantReport {
		t.Errorf("remote report differs from local render:\n--- server\n%s\n--- local\n%s", gotReport, wantReport)
	}
	gotLog, err := c.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog, wantLog) {
		t.Error("remote log differs from local replog.Write output")
	}
}
