// Tests for distributed execution: faworker processes leasing jobs from
// the coordinator, shipping runs, failing over, and staying byte-identical
// to local fadetect output. Protocol edge cases (duplicate shipment,
// coordinator restart) drive the wire format by hand.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/dispatch"
	"failatomic/internal/dispatch/worker"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

// bootConfigured is bootServer with a caller-supplied Config, for tests
// that need coordinator mode, short lease TTLs, or auth tokens.
func bootConfigured(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client, string, func()) {
	t.Helper()
	srv, err := serve.New(cfg)
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
	return srv, client.New(hts.URL), hts.URL, shutdown
}

// startWorker runs a faworker loop against url until the returned stop
// func is called (also registered as a cleanup, which runs before the
// server's own shutdown cleanup).
func startWorker(t *testing.T, url, name string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := worker.Run(ctx, worker.Config{Server: url, Name: name, Poll: 5 * time.Millisecond, Output: io.Discard}); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

// fetchMetrics decodes /metrics into a map.
func fetchMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRemoteWorkerRunsJob is the distributed headline: a coordinator-only
// server executes nothing itself, a faworker leases the job, and the
// stored artifacts are byte-identical to a local fadetect run.
func TestRemoteWorkerRunsJob(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
		WorkerPoll:      5 * time.Millisecond,
	})
	startWorker(t, url, "w1")
	ctx := context.Background()

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("remote job: %+v", st)
	}
	if st.RunsDone == 0 || st.Spliced != 0 {
		t.Errorf("runsDone=%d spliced=%d, want >0/0", st.RunsDone, st.Spliced)
	}

	wantLog, wantReport, wantCode := localReference(t, fastSpec())
	if st.ExitCode != wantCode {
		t.Errorf("exit code %d, want %d", st.ExitCode, wantCode)
	}
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
	if string(gotLog) != string(wantLog) {
		t.Error("remote log differs from local replog.Write output")
	}

	m := fetchMetrics(t, url)
	if m["workers_registered_total"] != 1 || m["workers_live"] != 1 {
		t.Errorf("worker gauges: registered=%d live=%d, want 1/1", m["workers_registered_total"], m["workers_live"])
	}
	if m["runs_shipped_total"] != m["runs_executed_total"] || m["runs_shipped_total"] == 0 {
		t.Errorf("runs_shipped_total=%d, want == runs_executed_total=%d and > 0",
			m["runs_shipped_total"], m["runs_executed_total"])
	}
	if m["leases_held"] != 0 || m["jobs_failed_over_total"] != 0 {
		t.Errorf("leases_held=%d failed_over=%d, want 0/0", m["leases_held"], m["jobs_failed_over_total"])
	}
}

// TestWorkerFailoverMidJob kills a worker mid-campaign (context cancel —
// the same silent disappearance as kill -9 for protocol purposes), lets
// the lease expire, and requires a second worker to resume from the
// shipped journal prefix and finish byte-identical to an uninterrupted
// local run.
func TestWorkerFailoverMidJob(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
		LeaseTTL:        200 * time.Millisecond,
		WorkerPoll:      5 * time.Millisecond,
	})
	ctx := context.Background()
	stop1 := startWorker(t, url, "w1")

	id, err := c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Watch the SSE stream until worker 1 has shipped a few runs, then
	// kill it mid-campaign.
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
	stop1()
	startWorker(t, url, "w2")

	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("failed-over job: %+v", st)
	}
	if st.Spliced == 0 {
		t.Fatal("failed-over job spliced no shipped runs — worker 2 restarted from scratch")
	}

	wantLog, wantReport, wantCode := localReference(t, slowSpec())
	if st.ExitCode != wantCode {
		t.Errorf("exit code %d, want %d", st.ExitCode, wantCode)
	}
	gotReport, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != wantReport {
		t.Error("failed-over report differs from uninterrupted local render")
	}
	gotLog, err := c.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotLog) != string(wantLog) {
		t.Error("failed-over log differs from uninterrupted local log")
	}

	m := fetchMetrics(t, url)
	if m["jobs_failed_over_total"] < 1 || m["lease_expirations_total"] < 1 {
		t.Errorf("failover counters: failed_over=%d expirations=%d, want >=1 each",
			m["jobs_failed_over_total"], m["lease_expirations_total"])
	}
}

// proto drives the worker wire protocol by hand for edge-case tests.
type proto struct {
	t    *testing.T
	base string
}

// post sends body (raw bytes pass through, anything else is JSON-encoded)
// and decodes a 2xx JSON response into out. It returns the status code.
func (p *proto) post(path string, body any, out any) int {
	p.t.Helper()
	var payload []byte
	contentType := "application/json"
	switch b := body.(type) {
	case []byte:
		payload = b
		contentType = "application/x-ndjson"
	default:
		var err error
		if payload, err = json.Marshal(body); err != nil {
			p.t.Fatal(err)
		}
	}
	resp, err := http.Post(p.base+path, contentType, bytes.NewReader(payload))
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			p.t.Fatalf("decoding %s response: %v", path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func (p *proto) register() dispatch.RegisterResponse {
	p.t.Helper()
	var reg dispatch.RegisterResponse
	if code := p.post("/v1/workers/register", dispatch.RegisterRequest{Name: "proto"}, &reg); code != http.StatusOK {
		p.t.Fatalf("register: status %d", code)
	}
	return reg
}

func (p *proto) lease(workerID string) dispatch.LeaseResponse {
	p.t.Helper()
	var lr dispatch.LeaseResponse
	if code := p.post("/v1/workers/"+workerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		p.t.Fatalf("lease: status %d", code)
	}
	return lr
}

func (p *proto) leasePath(workerID string, lr dispatch.LeaseResponse, op string) string {
	return "/v1/workers/" + workerID + "/leases/" + lr.LeaseID + "/" + op
}

// campaignRuns executes the campaign locally, returning the run stream
// plus the rendered artifacts — the exact payloads an honest worker would
// ship and upload.
func campaignRuns(t *testing.T, spec serve.JobSpec) (runs []inject.Run, log []byte, report string, exitCode int) {
	t.Helper()
	app, ok := apps.ByName(spec.App)
	if !ok {
		t.Fatalf("unknown app %q", spec.App)
	}
	ctx := context.Background()
	opts := mustOptions(t, spec)
	opts.OnRun = func(r inject.Run) error {
		runs = append(runs, r)
		return nil
	}
	res, err := harness.RunApp(ctx, app, opts)
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
	return runs, []byte(buf.String()), rep, code
}

// TestDuplicateShipmentDedup ships the same chunk twice — the retry a
// worker performs after a lost response — and requires the second copy to
// be dropped run for run, with counters and artifacts unharmed.
func TestDuplicateShipmentDedup(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
	})
	ctx := context.Background()
	p := &proto{t: t, base: url}

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	reg := p.register()
	lr := p.lease(reg.WorkerID)
	if lr.JobID != id {
		t.Fatalf("leased job %s, submitted %s", lr.JobID, id)
	}
	if prefix, err := replog.DecodeChunkRuns(lr.Prefix); err != nil || len(prefix) != 0 {
		t.Fatalf("fresh grant prefix: %d runs, %v (want empty)", len(prefix), err)
	}

	runs, log, report, exitCode := campaignRuns(t, fastSpec())
	chunk, err := replog.EncodeChunkBytes(runsByPoint(runs))
	if err != nil {
		t.Fatal(err)
	}
	var ship dispatch.ShipResponse
	if code := p.post(p.leasePath(reg.WorkerID, lr, "runs"), chunk, &ship); code != http.StatusOK {
		t.Fatalf("first shipment: status %d", code)
	}
	if ship.Accepted != len(runs) || ship.Duplicates != 0 {
		t.Fatalf("first shipment: %+v, want %d accepted", ship, len(runs))
	}
	if code := p.post(p.leasePath(reg.WorkerID, lr, "runs"), chunk, &ship); code != http.StatusOK {
		t.Fatalf("second shipment: status %d", code)
	}
	if ship.Accepted != 0 || ship.Duplicates != len(runs) {
		t.Fatalf("duplicate shipment: %+v, want %d duplicates and nothing accepted", ship, len(runs))
	}

	comp := dispatch.Completion{State: "done", ExitCode: exitCode, Log: log, Report: []byte(report)}
	if code := p.post(p.leasePath(reg.WorkerID, lr, "complete"), comp, nil); code != http.StatusOK {
		t.Fatalf("complete: status %d", code)
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.RunsDone != len(runs) {
		t.Fatalf("after duplicate shipment: %+v, want done with %d runs (no double count)", st, len(runs))
	}
	gotReport, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != report {
		t.Error("stored report differs after duplicate shipment")
	}
	m := fetchMetrics(t, url)
	if m["runs_shipped_total"] != int64(len(runs)) {
		t.Errorf("runs_shipped_total=%d, want %d (duplicates must not count)", m["runs_shipped_total"], len(runs))
	}
}

func runsByPoint(runs []inject.Run) map[inject.RunKey]inject.Run {
	m := make(map[inject.RunKey]inject.Run, len(runs))
	for _, r := range runs {
		if _, ok := m[r.Key()]; !ok {
			m[r.Key()] = r
		}
	}
	return m
}

// TestCoordinatorRestartLeaseRenewal restarts the coordinator under a
// live lease: the worker's next RPCs get 410 Gone, it re-registers, and
// the replacement grant's prefix carries every run shipped before the
// restart — the durable journal outlives the in-memory lease table.
func TestCoordinatorRestartLeaseRenewal(t *testing.T) {
	dataDir := t.TempDir()
	cfg := serve.Config{DataDir: dataDir, Workers: 1, QueueDepth: 16, CoordinatorOnly: true}
	_, c, url, shutdown := bootConfigured(t, cfg)
	ctx := context.Background()
	p := &proto{t: t, base: url}

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	reg := p.register()
	lr := p.lease(reg.WorkerID)
	if lr.JobID != id {
		t.Fatalf("leased job %s, submitted %s", lr.JobID, id)
	}
	runs, log, report, exitCode := campaignRuns(t, fastSpec())
	if len(runs) < 4 {
		t.Fatalf("campaign produced only %d runs — too few to ship a partial prefix", len(runs))
	}
	half := runs[:len(runs)/2]
	chunk, err := replog.EncodeChunkBytes(runsByPoint(half))
	if err != nil {
		t.Fatal(err)
	}
	var ship dispatch.ShipResponse
	if code := p.post(p.leasePath(reg.WorkerID, lr, "runs"), chunk, &ship); code != http.StatusOK || ship.Accepted != len(half) {
		t.Fatalf("partial shipment: status %d, %+v", code, ship)
	}
	if code := p.post(p.leasePath(reg.WorkerID, lr, "heartbeat"), struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("heartbeat before restart: status %d", code)
	}

	// Restart the coordinator over the same data directory.
	shutdown()
	cfg2 := cfg
	_, c2, url2, _ := bootConfigured(t, cfg2)
	p2 := &proto{t: t, base: url2}

	// The old identity is gone: renewal must say so, not limp along.
	if code := p2.post(p.leasePath(reg.WorkerID, lr, "heartbeat"), struct{}{}, nil); code != http.StatusGone {
		t.Fatalf("stale heartbeat after restart: status %d, want 410", code)
	}
	if code := p2.post(p.leasePath(reg.WorkerID, lr, "runs"), chunk, nil); code != http.StatusGone {
		t.Fatalf("stale shipment after restart: status %d, want 410", code)
	}

	// Re-register, re-lease: the shipped runs must come back as the prefix.
	reg2 := p2.register()
	lr2 := p2.lease(reg2.WorkerID)
	if lr2.JobID != id {
		t.Fatalf("re-leased job %s, want %s", lr2.JobID, id)
	}
	prefix, err := replog.DecodeChunkRuns(lr2.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != len(half) {
		t.Fatalf("resume prefix has %d runs, want the %d shipped before the restart", len(prefix), len(half))
	}
	for _, r := range half {
		if _, ok := prefix[r.Key()]; !ok {
			t.Fatalf("resume prefix lost shipped point %d", r.InjectionPoint)
		}
	}

	// Ship everything (the prefix half dedupes) and complete.
	full, err := replog.EncodeChunkBytes(runsByPoint(runs))
	if err != nil {
		t.Fatal(err)
	}
	if code := p2.post(p2.leasePath(reg2.WorkerID, lr2, "runs"), full, &ship); code != http.StatusOK {
		t.Fatalf("final shipment: status %d", code)
	}
	if ship.Accepted != len(runs)-len(half) || ship.Duplicates != len(half) {
		t.Fatalf("final shipment: %+v, want %d accepted / %d duplicates", ship, len(runs)-len(half), len(half))
	}
	comp := dispatch.Completion{State: "done", ExitCode: exitCode, Log: log, Report: []byte(report)}
	if code := p2.post(p2.leasePath(reg2.WorkerID, lr2, "complete"), comp, nil); code != http.StatusOK {
		t.Fatalf("complete: status %d", code)
	}
	st, err := c2.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Spliced != len(half) {
		t.Fatalf("after restart: %+v, want done with %d spliced", st, len(half))
	}
	gotReport, err := c2.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != report {
		t.Error("stored report differs after coordinator restart")
	}
}

// TestRemoteCancel cancels a job while a worker holds its lease: the job
// finalizes cancelled immediately and the worker's next RPC gets 410.
func TestRemoteCancel(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
	})
	ctx := context.Background()
	p := &proto{t: t, base: url}

	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	reg := p.register()
	lr := p.lease(reg.WorkerID)
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateCancelled {
		t.Fatalf("cancelled leased job: %+v", st)
	}
	if code := p.post(p.leasePath(reg.WorkerID, lr, "heartbeat"), struct{}{}, nil); code != http.StatusGone {
		t.Fatalf("heartbeat after cancel: status %d, want 410", code)
	}
}

// TestInProcessDefersToFleet: without -coordinator, jobs run in-process
// until a worker registers; while the fleet is live the pool defers.
func TestInProcessDefersToFleet(t *testing.T) {
	_, c, url, _ := bootConfigured(t, serve.Config{
		DataDir:    t.TempDir(),
		Workers:    1,
		QueueDepth: 16,
		WorkerPoll: 5 * time.Millisecond,
	})
	ctx := context.Background()

	// No workers: in-process execution, as before this subsystem existed.
	id, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, id); err != nil || st.State != serve.StateDone {
		t.Fatalf("in-process job: %+v, %v", st, err)
	}
	if m := fetchMetrics(t, url); m["runs_shipped_total"] != 0 {
		t.Fatalf("no worker registered yet runs_shipped_total=%d", m["runs_shipped_total"])
	}

	// A live worker takes the next job instead. Wait for the registration
	// to land so the submit cannot race it onto the in-process pool.
	startWorker(t, url, "w1")
	deadline := time.Now().Add(5 * time.Second)
	for fetchMetrics(t, url)["workers_live"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	id2, err := c.Submit(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, id2); err != nil || st.State != serve.StateDone {
		t.Fatalf("fleet job: %+v, %v", st, err)
	}
	if m := fetchMetrics(t, url); m["runs_shipped_total"] == 0 {
		t.Fatal("live worker registered but the job ran in-process")
	}
}
