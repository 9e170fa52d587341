// Tests exercise the campaign service end to end through its HTTP API
// and the thin client, the way fadetect -server and the CI smoke job do.
package serve_test

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

// bootServer builds, starts and HTTP-fronts a server over dataDir. The
// returned shutdown func is idempotent; tests that drain explicitly call
// it early to control ordering.
func bootServer(t *testing.T, dataDir string, workers, queue int) (*serve.Server, *client.Client, func()) {
	t.Helper()
	srv, err := serve.New(serve.Config{DataDir: dataDir, Workers: workers, QueueDepth: queue})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Drain(dctx); err != nil {
				t.Errorf("drain: %v", err)
			}
			hts.Close()
		})
	}
	t.Cleanup(shutdown)
	return srv, client.New(hts.URL), shutdown
}

// fastSpec is a HashedSet campaign that finishes in tens of milliseconds.
func fastSpec() serve.JobSpec { return serve.JobSpec{App: "HashedSet"} }

// slowSpec is a HashedSet campaign long enough (~1s) to observe and
// interrupt mid-flight.
func slowSpec() serve.JobSpec { return serve.JobSpec{App: "HashedSet", Repeats: 8} }

// localReference renders the same campaign the way a local fadetect run
// would: identical options, identical renderer.
func localReference(t *testing.T, spec serve.JobSpec) (log []byte, report string, exitCode int) {
	t.Helper()
	app, ok := apps.ByName(spec.App)
	if !ok {
		t.Fatalf("unknown app %q", spec.App)
	}
	ctx := context.Background()
	res, err := harness.RunApp(ctx, app, mustOptions(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := replog.Write(&buf, res.Result); err != nil {
		t.Fatal(err)
	}
	rep, code, err := cli.CampaignReport(ctx, app, mustOptions(t, spec), res)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String()), rep, code
}

// mustOptions converts a test spec's campaign knobs.
func mustOptions(t *testing.T, spec serve.JobSpec) inject.Options {
	t.Helper()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// waitForState polls until the job reaches the wanted state (or any
// terminal state, to fail fast instead of timing out).
func waitForState(t *testing.T, c *client.Client, id, want string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.Terminal() {
			t.Fatalf("job %s reached terminal state %q waiting for %q (error: %s)", id, st.State, want, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return serve.JobStatus{}
}

func TestSubmitWaitAndFetch(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 2, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
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

	wantLog, wantReport, wantCode := localReference(t, fastSpec())
	if st.ExitCode != wantCode {
		t.Fatalf("exit code %d, want %d", st.ExitCode, wantCode)
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
	if string(gotLog) != string(wantLog) {
		t.Error("stored log differs from local replog.Write output")
	}
	if st.RunsDone == 0 || st.Spliced != 0 {
		t.Errorf("runsDone=%d spliced=%d, want >0/0", st.RunsDone, st.Spliced)
	}
}

func TestSSEOrderingAndReplay(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		var events []serve.Event
		end, err := c.Follow(ctx, id, func(e serve.Event) error {
			events = append(events, e)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if end.Type != serve.EventEnd || end.State != serve.StateDone {
			t.Fatalf("%s: terminal event %+v", label, end)
		}
		if len(events) < 3 {
			t.Fatalf("%s: only %d events", label, len(events))
		}
		if events[0].Type != "state" || events[0].State != serve.StateQueued {
			t.Errorf("%s: first event %+v, want queued", label, events[0])
		}
		runs := 0
		for i, e := range events {
			if e.Seq != i+1 {
				t.Fatalf("%s: event %d has seq %d — stream must be gapless and ordered", label, i, e.Seq)
			}
			if e.Type == "run" {
				if e.Runs != runs+1 {
					t.Fatalf("%s: run event %+v after %d runs — counts must be cumulative", label, e, runs)
				}
				runs = e.Runs
			}
		}
		if runs == 0 {
			t.Fatalf("%s: no run events", label)
		}
	}
	// Live follow...
	check("live")
	// ...and a late subscriber replaying history after the job is done.
	check("replay")
}

func TestConcurrentSubmission(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 2, 16)
	ctx := context.Background()

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = c.Submit(ctx, fastSpec())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, wantReport, _ := localReference(t, fastSpec())
	for _, id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
		rep, err := c.Report(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if string(rep) != wantReport {
			t.Errorf("job %s report differs from local render", id)
		}
	}
}

func TestQueueFull(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 1)
	ctx := context.Background()

	// Occupy the single worker...
	running, err := c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, running, serve.StateRunning)
	// ...fill the queue...
	queued, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	// ...and overflow it.
	_, err = c.Submit(ctx, fastSpec())
	var qf *client.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("overflow submit returned %v, want QueueFullError", err)
	}
	if qf.RetryAfter <= 0 {
		t.Errorf("Retry-After hint missing: %+v", qf)
	}

	// The refusal must not disturb admitted jobs.
	for _, id := range []string{running, queued} {
		if st, err := c.Wait(ctx, id); err != nil || st.State != serve.StateDone {
			t.Fatalf("job %s after overflow: %+v, %v", id, st, err)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	dataDir := t.TempDir()
	_, c, _ := bootServer(t, dataDir, 1, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitForState(t, c, id, serve.StateRunning)
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	end, err := c.Follow(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if end.State != serve.StateCancelled {
		t.Fatalf("terminal event %+v, want cancelled", end)
	}
	st, err = c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateCancelled || st.ExitCode != cli.ExitFailure {
		t.Fatalf("status %+v, want cancelled/1", st)
	}
	// Cancellation is terminal: no journal left behind, results 409.
	if _, err := os.Stat(filepath.Join(dataDir, "jobs", id, "log.journal")); !os.IsNotExist(err) {
		t.Errorf("cancelled job must not keep a journal (err=%v)", err)
	}
	if _, err := c.Report(ctx, id); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("report of cancelled job = %v, want 409", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 16)
	ctx := context.Background()

	blocker, err := c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, blocker, serve.StateRunning)
	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateCancelled {
		t.Fatalf("queued job after cancel: %+v", st)
	}
	if st2, err := c.Wait(ctx, blocker); err != nil || st2.State != serve.StateDone {
		t.Fatalf("blocker after cancel: %+v, %v", st2, err)
	}
}

// TestRestartResumeByteIdentity is the durability headline: drain a
// server mid-job (parking it with its journal), boot a fresh server over
// the same data directory, and require the resumed job's log and report
// to be byte-identical to an uninterrupted local run.
func TestRestartResumeByteIdentity(t *testing.T) {
	dataDir := t.TempDir()
	_, c, shutdown := bootServer(t, dataDir, 1, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Follow until a few runs have been journaled, then detach.
	errEnough := errors.New("seen enough")
	_, err = c.Follow(ctx, id, func(e serve.Event) error {
		if e.Type == "run" && e.Runs >= 5 {
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("follow: %v (the job finished before it could be interrupted — slowSpec is too fast)", err)
	}

	// Drain: the running job must park, keeping its journal, writing no
	// terminal manifest.
	shutdown()
	jobDir := filepath.Join(dataDir, "jobs", id)
	if _, err := os.Stat(filepath.Join(jobDir, "log.journal")); err != nil {
		t.Fatalf("parked job lost its journal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(jobDir, "done.json")); !os.IsNotExist(err) {
		t.Fatalf("parked job must not have a terminal manifest (err=%v)", err)
	}

	// Boot a fresh server over the same data directory: the job re-queues,
	// splices the journal, and finishes.
	_, c2, _ := bootServer(t, dataDir, 1, 16)
	st, err := c2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("resumed job: %+v", st)
	}
	if st.Spliced == 0 {
		t.Fatal("resumed job spliced no journaled runs — it restarted from scratch")
	}

	wantLog, wantReport, wantCode := localReference(t, slowSpec())
	if st.ExitCode != wantCode {
		t.Errorf("exit code %d, want %d", st.ExitCode, wantCode)
	}
	gotReport, err := c2.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != wantReport {
		t.Error("resumed report differs from uninterrupted local render")
	}
	gotLog, err := c2.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotLog) != string(wantLog) {
		t.Error("resumed log differs from uninterrupted local log")
	}
	if _, err := os.Stat(filepath.Join(jobDir, "log.journal")); !os.IsNotExist(err) {
		t.Errorf("finished job must remove its journal (err=%v)", err)
	}
}

// TestRestartTerminalJob: a completed job survives a restart read-only —
// status, report and log stay fetchable, and its event stream replays
// straight to the terminal event.
func TestRestartTerminalJob(t *testing.T) {
	dataDir := t.TempDir()
	_, c, shutdown := bootServer(t, dataDir, 1, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id)
	if err != nil || st.State != serve.StateDone {
		t.Fatalf("first run: %+v, %v", st, err)
	}
	report1, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	shutdown()

	_, c2, _ := bootServer(t, dataDir, 1, 16)
	st2, err := c2.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != serve.StateDone || st2.ExitCode != st.ExitCode {
		t.Fatalf("recovered status %+v, want %+v", st2, st)
	}
	report2, err := c2.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(report1) != string(report2) {
		t.Error("stored report changed across restart")
	}
	end, err := c2.Follow(ctx, id, nil)
	if err != nil || end.State != serve.StateDone {
		t.Fatalf("recovered event stream: %+v, %v", end, err)
	}
}

func TestDrainRefusesAdmission(t *testing.T) {
	srv, c, _ := bootServer(t, t.TempDir(), 1, 16)
	ctx := context.Background()

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, fastSpec()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining = %v, want 503", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c, _ := bootServer(t, t.TempDir(), 1, 16)
	ctx := context.Background()

	if _, err := c.Submit(ctx, serve.JobSpec{App: "NoSuchApp"}); err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("unknown app = %v", err)
	}
	if _, err := c.Status(ctx, "jdeadbeefdeadbeef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job = %v", err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, c, _ := bootServer(t, t.TempDir(), 1, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, id); err != nil || st.State != serve.StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}

	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	body := func(path string) string {
		resp, err := hts.Client().Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if got := body("/healthz"); !strings.Contains(got, `"ok":true`) {
		t.Errorf("healthz = %s", got)
	}
	metrics := body("/metrics")
	for _, want := range []string{
		`"jobs_done_total": 1`, `"jobs_queued_total": 1`, `"runs_executed_total"`, `"queue_depth": 0`,
		// The platform gauges: per-priority queue depths, the quota
		// counter, the queue-wait high-water mark, crontab counters.
		`"queue_depth_high": 0`, `"queue_depth_normal": 0`, `"queue_depth_low": 0`,
		`"quota_rejections_total": 0`, `"queue_wait_seconds_max"`,
		`"crontabs_active": 0`, `"crontab_fired_total": 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
