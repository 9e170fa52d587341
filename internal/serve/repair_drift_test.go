// Tests for the repair job kind and the server-side drift gate.
package serve_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/harness"
	"failatomic/internal/repair"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
	"failatomic/internal/serve/store"
)

// TestRepairJobEndToEnd runs the repair workflow as a faserve job and
// requires its stored report and log to be byte-identical to the same
// workflow run locally — the server renders through repair.Report.Render
// and stores the phase-1 replog, exactly like farepair does.
func TestRepairJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs child Go programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	_, c, _ := bootServer(t, t.TempDir(), 2, 16)
	ctx := context.Background()

	spec := serve.JobSpec{App: "LinkedList", Kind: serve.KindRepair}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.ExitCode != cli.ExitOK {
		t.Fatalf("repair job = %+v, want done/0", st)
	}

	rep, err := repair.Run(ctx, repair.Config{App: spec.App, Options: mustOptions(t, spec)})
	if err != nil {
		t.Fatal(err)
	}
	gotReport, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != rep.Render() {
		t.Errorf("stored repair report differs from local render:\n--- server\n%s\n--- local\n%s", gotReport, rep.Render())
	}
	var wantLog strings.Builder
	if err := replog.Write(&wantLog, rep.Campaign); err != nil {
		t.Fatal(err)
	}
	gotLog, err := c.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotLog) != wantLog.String() {
		t.Error("stored phase-1 log differs from local replog.Write output")
	}
}

// TestRepairJobValidation pins the admission rules for the kind field.
func TestRepairJobValidation(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 16)
	ctx := context.Background()

	if _, err := c.Submit(ctx, serve.JobSpec{App: "RBMap", Kind: serve.KindRepair}); err == nil ||
		!strings.Contains(err.Error(), "no repair source tree") {
		t.Fatalf("repair of tree-less app = %v", err)
	}
	if _, err := c.Submit(ctx, serve.JobSpec{App: "LinkedList", Kind: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("bogus kind = %v", err)
	}
}

// plantDriftBaseline writes a terminal done LinkedList job with the given
// id and raw spec JSON into dataDir. Its stored log classifies differently
// from a fresh LinkedList campaign: it was run with §4.3 exception-free
// hints, which no spec encodes.
func plantDriftBaseline(t *testing.T, dataDir, id, specJSON string) {
	t.Helper()
	app, ok := apps.ByName("LinkedList")
	if !ok {
		t.Fatal("LinkedList application missing")
	}
	hintedOpts := mustOptions(t, serve.JobSpec{App: "LinkedList"})
	hintedOpts.ExceptionFree = map[string]bool{
		"LinkedList.checkIndex":          true,
		"LinkedList.checkIndexInclusive": true,
	}
	res, err := harness.RunApp(context.Background(), app, hintedOpts)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf strings.Builder
	if err := replog.Write(&logBuf, res.Result); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dataDir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	sha, err := st.Put([]byte(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dataDir, "jobs", id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"id":"` + id + `","spec":` + specJSON + `}`
	done := `{"id":"` + id + `","spec":` + specJSON + `,"state":"done","exitCode":0,"log":"` +
		sha + `","completedAt":"2026-01-01T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(jobDir, "spec.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "done.json"), []byte(done), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDriftGate pre-populates the data directory with a terminal done job
// whose stored log classifies differently (plantDriftBaseline), then
// submits the same spec fresh: the completed campaign must finalize
// drifted with cli.ExitDrift, keep its artifacts retrievable, leave the
// baseline unadvanced, and count in jobs_drifted_total. The same spec
// with Parallelism set, sent as raw JSON by an older client that still
// carries a "snapshot" key, gates against that baseline too. A spec with
// no baseline completes done, and a repeat of it matches its own
// baseline.
func TestDriftGate(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	spec := serve.JobSpec{App: "LinkedList"}
	plantDriftBaseline(t, dataDir, "j0000000000000001", `{"app":"LinkedList"}`)

	srv, c, _ := bootServer(t, dataDir, 2, 16)

	// Fresh run of the baselined spec: the gate must trip.
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateDrifted || got.ExitCode != cli.ExitDrift {
		t.Fatalf("job = %+v, want drifted/%d", got, cli.ExitDrift)
	}
	if !strings.Contains(got.Error, "drifted") {
		t.Errorf("drift error = %q", got.Error)
	}
	if report, err := c.Report(ctx, id); err != nil || len(report) == 0 {
		t.Errorf("drifted job report: %v (%d bytes)", err, len(report))
	}
	if log, err := c.Log(ctx, id); err != nil || len(log) == 0 {
		t.Errorf("drifted job log: %v (%d bytes)", err, len(log))
	}

	// A drifted run never becomes the baseline: the same spec drifts again.
	id2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got2, err := c.Wait(ctx, id2); err != nil || got2.State != serve.StateDrifted {
		t.Fatalf("second run = %+v, %v, want drifted again", got2, err)
	}

	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	// Parallelism cannot change a result, and an older client's
	// "snapshot" key is dropped at decode, so the spec with both set
	// shares the baseline.
	code, st3 := postSpec(t, hts.URL, "/v1/jobs", `{"app":"LinkedList","parallelism":2,"snapshot":"capture"}`)
	if code != http.StatusAccepted {
		t.Fatalf("legacy submission = %d, want 202", code)
	}
	if got3, err := c.Wait(ctx, st3.ID); err != nil || got3.State != serve.StateDrifted {
		t.Fatalf("legacy parallel run = %+v, %v, want drifted against the shared baseline", got3, err)
	}

	// A different spec has no baseline: done, and a repeat matches the
	// baseline it just established.
	other := serve.JobSpec{App: "LinkedList", Repeats: 2}
	for i := 0; i < 2; i++ {
		oid, err := c.Submit(ctx, other)
		if err != nil {
			t.Fatal(err)
		}
		if ost, err := c.Wait(ctx, oid); err != nil || ost.State != serve.StateDone {
			t.Fatalf("run %d of unbaselined spec = %+v, %v, want done", i, ost, err)
		}
	}

	resp, err := hts.Client().Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `"jobs_drifted_total": 3`) {
		t.Errorf("metrics missing jobs_drifted_total=3:\n%s", metrics)
	}
}

// TestDriftGateSurvivesRestart proves the baseline index is rebuilt at
// boot: a clean done run on one server instance becomes the baseline a
// second instance gates against.
func TestDriftGateSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	spec := serve.JobSpec{App: "HashedSet"}

	_, c, shutdown := bootServer(t, dataDir, 1, 16)
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, id); err != nil || st.State != serve.StateDone {
		t.Fatalf("first run = %+v, %v", st, err)
	}
	shutdown()

	_, c2, _ := bootServer(t, dataDir, 1, 16)
	id2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic workload, same spec: the rebuilt baseline must match.
	if st, err := c2.Wait(ctx, id2); err != nil || st.State != serve.StateDone {
		t.Fatalf("post-restart run = %+v, %v, want done (no drift)", st, err)
	}
}
