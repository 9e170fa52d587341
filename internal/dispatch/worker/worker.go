// Package worker is the faworker side of the dispatch protocol: a loop
// that registers with a faserve coordinator, leases campaign jobs, runs
// them with the scoped-session supervisor, streams every completed run
// back as a replog chunk, and uploads the final log and report — rendered
// through the same code paths fadetect uses locally, which is what keeps
// a distributed campaign's output byte-identical to a local one.
//
// Failure behavior mirrors the lease contract: the worker heartbeats its
// lease on a fraction of the TTL; if the coordinator answers 410 Gone
// (lease expired, job cancelled, coordinator restarted) the campaign is
// abandoned mid-flight — everything shipped so far is already in the
// coordinator's journal, so whoever claims the job next resumes instead
// of restarting. A worker killed outright simply stops heartbeating and
// the coordinator reaches the same outcome from its side.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"failatomic/internal/cli"
	"failatomic/internal/dispatch"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
)

// Config parameterizes a worker.
type Config struct {
	// Server is the coordinator base URL (e.g. "http://host:8080").
	Server string
	// Token is the bearer token for an authed coordinator (worker RPCs
	// are write-scope).
	Token string
	// Name labels the worker on the coordinator (default "host:pid").
	Name string
	// Poll overrides the coordinator-suggested idle-poll interval.
	Poll time.Duration
	// Output receives progress lines (nil = os.Stderr).
	Output io.Writer
}

// errGone marks 410 responses: the lease or worker identity is dead.
var errGone = errors.New("worker: lease or registration is gone")

// Run registers with the coordinator and processes leases until ctx is
// cancelled. It returns nil on cancellation; only a misconfiguration
// (unusable server URL at first contact never succeeding is retried, not
// fatal) ends it early.
func Run(ctx context.Context, cfg Config) error {
	if cfg.Server == "" {
		return errors.New("worker: Config.Server is required")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Output == nil {
		cfg.Output = os.Stderr
	}
	w := &worker{cfg: cfg, hc: &http.Client{}}
	for {
		if ctx.Err() != nil {
			return nil
		}
		if w.id == "" {
			if !w.register(ctx) {
				return nil // ctx cancelled while registering
			}
		}
		lr, ok, err := w.acquire(ctx)
		switch {
		case errors.Is(err, errGone):
			// The coordinator restarted and forgot us; rejoin the fleet.
			w.logf("registration lost; re-registering")
			w.id = ""
		case err != nil:
			if ctx.Err() != nil {
				return nil
			}
			w.logf("lease poll failed: %v", err)
			w.sleep(ctx, w.poll)
		case !ok:
			w.sleep(ctx, w.poll)
		default:
			w.runLease(ctx, lr)
		}
	}
}

// worker is one registered identity plus its HTTP plumbing.
type worker struct {
	cfg  Config
	hc   *http.Client
	id   string
	ttl  time.Duration
	poll time.Duration
}

func (w *worker) logf(format string, args ...any) {
	fmt.Fprintf(w.cfg.Output, "faworker: "+format+"\n", args...)
}

// register joins the fleet, retrying with backoff until it succeeds or
// ctx ends; it reports false only for cancellation.
func (w *worker) register(ctx context.Context) bool {
	backoff := 100 * time.Millisecond
	for {
		var resp dispatch.RegisterResponse
		err := w.post(ctx, "/v1/workers/register", dispatch.RegisterRequest{Name: w.cfg.Name}, &resp)
		if err == nil {
			w.id = resp.WorkerID
			w.ttl = resp.LeaseTTL
			w.poll = resp.Poll
			if w.cfg.Poll > 0 {
				w.poll = w.cfg.Poll
			}
			w.logf("registered as %s (lease ttl %v, poll %v)", w.id, w.ttl, w.poll)
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		w.logf("register failed: %v (retrying in %v)", err, backoff)
		if !w.sleep(ctx, backoff) {
			return false
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// acquire asks for one lease: (lease, true) on a grant, false on an idle
// queue, errGone when the worker must re-register.
func (w *worker) acquire(ctx context.Context) (dispatch.LeaseResponse, bool, error) {
	var resp dispatch.LeaseResponse
	err := w.post(ctx, "/v1/workers/"+w.id+"/lease", struct{}{}, &resp)
	if err != nil {
		return dispatch.LeaseResponse{}, false, err
	}
	if resp.LeaseID == "" {
		return dispatch.LeaseResponse{}, false, nil // 204: nothing queued
	}
	return resp, true, nil
}

// runLease executes one leased job end to end through serve's kind
// table — the code path faserve's in-process pool and a local fadetect
// run take, which is what makes the upload byte-identical to theirs.
func (w *worker) runLease(ctx context.Context, lr dispatch.LeaseResponse) {
	w.logf("leased job %s (lease %s)", lr.JobID, lr.LeaseID)
	var spec serve.JobSpec
	if err := json.Unmarshal(lr.Spec, &spec); err != nil {
		w.fail(ctx, lr, fmt.Sprintf("undecodable job spec: %v", err))
		return
	}
	if err := spec.Validate(); err != nil {
		w.fail(ctx, lr, fmt.Sprintf("invalid job spec: %v", err))
		return
	}
	completed := map[inject.RunKey]inject.Run{}
	if len(lr.Prefix) > 0 {
		var err error
		if completed, err = replog.DecodeChunkRuns(lr.Prefix); err != nil {
			w.fail(ctx, lr, fmt.Sprintf("undecodable resume prefix: %v", err))
			return
		}
		w.logf("job %s: resuming past %d journaled runs", lr.JobID, len(completed))
	}

	// The job aborts when the worker is shutting down (ctx) or the lease
	// dies under it (heartbeat sees 410, or shipping does).
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var leaseLost atomic.Bool
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeat(jctx, lr, &leaseLost, cancel, hbStop, hbDone)
	defer func() {
		close(hbStop)
		<-hbDone
	}()

	shipper := &shipper{w: w, ctx: jctx, lr: lr, leaseLost: &leaseLost, cancel: cancel}
	out, err := spec.Run(jctx, completed, shipper.ship)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			// Worker shutdown: say nothing — the lease will expire and the
			// job fails over with its shipped prefix intact.
			w.logf("job %s: abandoned (worker shutting down)", lr.JobID)
		case leaseLost.Load():
			w.logf("job %s: lease lost; abandoning (shipped runs are journaled)", lr.JobID)
		default:
			w.fail(ctx, lr, err.Error())
		}
		return
	}
	log, err := out.Log()
	if err != nil {
		w.fail(ctx, lr, err.Error())
		return
	}
	comp := dispatch.Completion{State: "done", ExitCode: out.ExitCode, Log: log, Report: []byte(out.Report)}
	if err := w.complete(ctx, lr, comp); err != nil {
		w.logf("job %s: result upload failed: %v", lr.JobID, err)
		return
	}
	w.logf("job %s: done (exit %d, %d runs)", lr.JobID, out.ExitCode, len(out.Result.Runs))
}

// heartbeat renews the lease on a third of its TTL until stopped. 410 —
// or three consecutive transport failures (a restarted coordinator holds
// no leases, so there is nothing to keep alive) — marks the lease lost
// and cancels the campaign.
func (w *worker) heartbeat(ctx context.Context, lr dispatch.LeaseResponse, leaseLost *atomic.Bool, cancel context.CancelFunc, stop, done chan struct{}) {
	defer close(done)
	interval := lr.LeaseTTL / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	failures := 0
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var resp dispatch.HeartbeatResponse
		err := w.post(ctx, w.leasePath(lr, "heartbeat"), struct{}{}, &resp)
		switch {
		case err == nil:
			failures = 0
		case errors.Is(err, errGone):
			leaseLost.Store(true)
			cancel()
			return
		case ctx.Err() != nil:
			return
		default:
			if failures++; failures >= 3 {
				w.logf("job %s: %d heartbeats failed (%v); assuming lease lost", lr.JobID, failures, err)
				leaseLost.Store(true)
				cancel()
				return
			}
		}
	}
}

// shipper streams completed runs to the coordinator, one chunk per run.
// A transport failure is retried once — the coordinator dedupes the
// double shipment if the first one actually landed — and then treated as
// a lost lease (the campaign aborts; nothing is lost, the runs that did
// land are journaled).
type shipper struct {
	w         *worker
	ctx       context.Context
	lr        dispatch.LeaseResponse
	leaseLost *atomic.Bool
	cancel    context.CancelFunc
	mu        sync.Mutex
}

func (sh *shipper) ship(run inject.Run) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var chunk bytes.Buffer
	if err := replog.EncodeChunk(&chunk, []inject.Run{run}); err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			if !sh.w.sleep(sh.ctx, 100*time.Millisecond) {
				return sh.ctx.Err()
			}
		}
		var resp dispatch.ShipResponse
		lastErr = sh.w.postChunk(sh.ctx, sh.w.leasePath(sh.lr, "runs"), chunk.Bytes(), &resp)
		if lastErr == nil {
			return nil
		}
		if errors.Is(lastErr, errGone) {
			break
		}
	}
	sh.leaseLost.Store(true)
	sh.cancel()
	return fmt.Errorf("worker: shipping run %d: %w", run.InjectionPoint, lastErr)
}

// fail uploads a terminal failure for the lease (invalid spec, campaign
// error). Upload problems are logged, not retried forever: if the lease
// is gone the coordinator has already failed the job over.
func (w *worker) fail(ctx context.Context, lr dispatch.LeaseResponse, msg string) {
	w.logf("job %s: failed: %s", lr.JobID, msg)
	comp := dispatch.Completion{State: "failed", ExitCode: cli.ExitFailure, Error: msg}
	if err := w.complete(ctx, lr, comp); err != nil {
		w.logf("job %s: failure upload failed: %v", lr.JobID, err)
	}
}

// complete uploads the terminal result, retrying transport errors.
func (w *worker) complete(ctx context.Context, lr dispatch.LeaseResponse, comp dispatch.Completion) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if !w.sleep(ctx, 500*time.Millisecond) {
				return ctx.Err()
			}
		}
		lastErr = w.post(ctx, w.leasePath(lr, "complete"), comp, &struct{}{})
		if lastErr == nil || errors.Is(lastErr, errGone) {
			return lastErr
		}
	}
	return lastErr
}

func (w *worker) leasePath(lr dispatch.LeaseResponse, op string) string {
	return "/v1/workers/" + w.id + "/leases/" + lr.LeaseID + "/" + op
}

// post sends one JSON request and decodes the JSON response into out.
func (w *worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	return w.send(ctx, path, "application/json", body, out)
}

// postChunk sends a replog chunk body.
func (w *worker) postChunk(ctx context.Context, path string, chunk []byte, out any) error {
	return w.send(ctx, path, "application/x-ndjson", chunk, out)
}

func (w *worker) send(ctx context.Context, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Server+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	if w.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.Token)
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil
	case resp.StatusCode == http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return errGone
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		var ae struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("worker: coordinator returned %s: %s", resp.Status, ae.Error)
		}
		return fmt.Errorf("worker: coordinator returned %s", resp.Status)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("worker: decoding %s response: %w", path, err)
	}
	return nil
}

// sleep waits d or until ctx ends; it reports whether the full wait
// elapsed.
func (w *worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
