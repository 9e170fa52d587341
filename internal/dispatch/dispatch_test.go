// Unit tests for the coordinator: lease lifecycle, expiry-driven
// failover, worker pruning, and the 410 Gone contract — all over a fake
// job queue, independent of internal/serve.
package dispatch_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"failatomic/internal/dispatch"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
)

// fakeJobs is an in-memory Jobs implementation recording every call.
type fakeJobs struct {
	mu        sync.Mutex
	queue     []dispatch.Grant
	appended  map[string][]inject.Run
	completed map[string]dispatch.Completion
	requeued  []string
}

func newFakeJobs(grants ...dispatch.Grant) *fakeJobs {
	return &fakeJobs{
		queue:     grants,
		appended:  make(map[string][]inject.Run),
		completed: make(map[string]dispatch.Completion),
	}
}

func (f *fakeJobs) Claim() (dispatch.Grant, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		return dispatch.Grant{}, false
	}
	g := f.queue[0]
	f.queue = f.queue[1:]
	return g, true
}

func (f *fakeJobs) AppendRuns(jobID string, runs []inject.Run) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.appended[jobID] = append(f.appended[jobID], runs...)
	return len(runs), nil
}

func (f *fakeJobs) Complete(jobID string, c dispatch.Completion) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.completed[jobID] = c
	return nil
}

func (f *fakeJobs) Requeue(jobID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requeued = append(f.requeued, jobID)
}

func (f *fakeJobs) requeuedJobs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.requeued...)
}

// boot builds a started coordinator over jobs, fronted by the same mux
// wiring internal/serve uses, and tears both down with the test.
func boot(t *testing.T, jobs dispatch.Jobs, cfg dispatch.Config) (*dispatch.Coordinator, string) {
	t.Helper()
	cfg.Jobs = jobs
	c := dispatch.New(cfg)
	c.Start()
	t.Cleanup(c.Stop)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/register", c.HandleRegister)
	mux.HandleFunc("POST /v1/workers/{worker}/lease", c.HandleLease)
	mux.HandleFunc("POST /v1/workers/{worker}/leases/{lease}/heartbeat", c.HandleHeartbeat)
	mux.HandleFunc("POST /v1/workers/{worker}/leases/{lease}/runs", c.HandleShip)
	mux.HandleFunc("POST /v1/workers/{worker}/leases/{lease}/complete", c.HandleComplete)
	hts := httptest.NewServer(mux)
	t.Cleanup(hts.Close)
	return c, hts.URL
}

// post sends body ([]byte raw, else JSON) and decodes a 2xx response.
func post(t *testing.T, url, path string, body, out any) int {
	t.Helper()
	var payload []byte
	contentType := "application/json"
	switch b := body.(type) {
	case []byte:
		payload = b
		contentType = "application/x-ndjson"
	default:
		var err error
		if payload, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url+path, contentType, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func register(t *testing.T, url string) dispatch.RegisterResponse {
	t.Helper()
	var reg dispatch.RegisterResponse
	if code := post(t, url, "/v1/workers/register", dispatch.RegisterRequest{Name: "test"}, &reg); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	return reg
}

func leasePath(workerID, leaseID, op string) string {
	return "/v1/workers/" + workerID + "/leases/" + leaseID + "/" + op
}

func encodeRuns(t *testing.T, runs ...inject.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := replog.EncodeChunk(&buf, runs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLeaseLifecycle(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1", Spec: json.RawMessage(`{"app":"X"}`)})
	c, url := boot(t, jobs, dispatch.Config{})

	reg := register(t, url)
	if reg.WorkerID == "" || reg.LeaseTTL != dispatch.DefaultLeaseTTL || reg.Poll != dispatch.DefaultPoll {
		t.Fatalf("register response %+v", reg)
	}

	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	if lr.JobID != "j1" || lr.LeaseID == "" {
		t.Fatalf("lease response %+v", lr)
	}
	if st := c.Stats(); st.WorkersRegisteredTotal != 1 || st.WorkersLive != 1 || st.LeasesHeld != 1 {
		t.Fatalf("stats after lease: %+v", st)
	}

	// An empty queue answers 204, not an error.
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, nil); code != http.StatusNoContent {
		t.Fatalf("idle lease poll: status %d, want 204", code)
	}

	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "heartbeat"), struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("heartbeat: status %d", code)
	}

	var ship dispatch.ShipResponse
	chunk := encodeRuns(t, inject.Run{InjectionPoint: 0}, inject.Run{InjectionPoint: 1})
	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "runs"), chunk, &ship); code != http.StatusOK {
		t.Fatalf("ship: status %d", code)
	}
	if ship.Accepted != 2 || ship.Duplicates != 0 {
		t.Fatalf("ship response %+v", ship)
	}
	if got := jobs.appended["j1"]; len(got) != 2 {
		t.Fatalf("jobs saw %d appended runs, want 2", len(got))
	}

	comp := dispatch.Completion{State: "done", ExitCode: 0, Log: []byte("log"), Report: []byte("report")}
	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "complete"), comp, nil); code != http.StatusOK {
		t.Fatalf("complete: status %d", code)
	}
	if got, ok := jobs.completed["j1"]; !ok || got.State != "done" {
		t.Fatalf("jobs saw completion %+v", got)
	}
	st := c.Stats()
	if st.LeasesHeld != 0 || st.RunsShippedTotal != 2 || st.JobsFailedOverTotal != 0 {
		t.Fatalf("stats after complete: %+v", st)
	}
	if len(jobs.requeuedJobs()) != 0 {
		t.Fatalf("completed job was requeued: %v", jobs.requeuedJobs())
	}
}

func TestLeaseExpiryFailsOverAndPrunesWorker(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1"})
	c, url := boot(t, jobs, dispatch.Config{LeaseTTL: 60 * time.Millisecond})

	reg := register(t, url)
	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}

	// Fall silent: the sweeper must expire the lease and requeue the job.
	deadline := time.Now().Add(5 * time.Second)
	for len(jobs.requeuedJobs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := jobs.requeuedJobs(); got[0] != "j1" {
		t.Fatalf("requeued %v, want j1", got)
	}
	st := c.Stats()
	if st.LeaseExpirationsTotal < 1 || st.JobsFailedOverTotal < 1 || st.LeasesHeld != 0 {
		t.Fatalf("stats after expiry: %+v", st)
	}

	// Shipping on the dead lease is refused — exactly one writer per job.
	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "runs"), encodeRuns(t, inject.Run{}), nil); code != http.StatusGone {
		t.Fatalf("ship on expired lease: status %d, want 410", code)
	}

	// Two more silent TTLs and the worker itself is pruned.
	for c.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never pruned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, nil); code != http.StatusGone {
		t.Fatalf("lease poll from pruned worker: status %d, want 410", code)
	}
}

func TestIdlePollKeepsWorkerAlive(t *testing.T) {
	jobs := newFakeJobs() // empty queue: the worker only polls
	c, url := boot(t, jobs, dispatch.Config{LeaseTTL: 60 * time.Millisecond})

	reg := register(t, url)
	// Poll past several prune deadlines; each 204 must refresh liveness.
	for i := 0; i < 20; i++ {
		if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, nil); code != http.StatusNoContent {
			t.Fatalf("poll %d: status %d, want 204", i, code)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if c.LiveWorkers() != 1 {
		t.Fatalf("polling worker was pruned (live=%d)", c.LiveWorkers())
	}
}

func TestGoneForUnknownIdentity(t *testing.T) {
	_, url := boot(t, newFakeJobs(), dispatch.Config{})
	for _, path := range []string{
		"/v1/workers/wbogus/lease",
		leasePath("wbogus", "lbogus", "heartbeat"),
		leasePath("wbogus", "lbogus", "complete"),
	} {
		if code := post(t, url, path, struct{}{}, nil); code != http.StatusGone {
			t.Errorf("%s: status %d, want 410", path, code)
		}
	}
	if code := post(t, url, leasePath("wbogus", "lbogus", "runs"), encodeRuns(t, inject.Run{}), nil); code != http.StatusGone {
		t.Errorf("ship with bogus lease: status %d, want 410", code)
	}
}

func TestLeaseMismatchedWorkerIsGone(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1"})
	_, url := boot(t, jobs, dispatch.Config{})
	reg1 := register(t, url)
	reg2 := register(t, url)
	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg1.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	// Another worker cannot renew or ship on someone else's lease.
	if code := post(t, url, leasePath(reg2.WorkerID, lr.LeaseID, "heartbeat"), struct{}{}, nil); code != http.StatusGone {
		t.Fatalf("cross-worker heartbeat: status %d, want 410", code)
	}
}

// TestRegisterBodyCapped: a register body past 64 KiB is refused with
// 413 before it is decoded, and registers no worker.
func TestRegisterBodyCapped(t *testing.T) {
	c, url := boot(t, newFakeJobs(), dispatch.Config{})
	name := strings.Repeat("w", 64<<10)
	if code := post(t, url, "/v1/workers/register", dispatch.RegisterRequest{Name: name}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register: status %d, want 413", code)
	}
	if st := c.Stats(); st.WorkersRegisteredTotal != 0 {
		t.Fatalf("oversized register added a worker: %+v", st)
	}
	register(t, url)
}

// TestCompleteBodyCapped: a completion body past the coordinator's cap
// gets 413 and fails the job with a stated error, and the lease is gone,
// so the job is neither stored from a truncated upload nor left to expire
// and be re-leased. The body is streamed, never built in memory.
func TestCompleteBodyCapped(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1", Spec: json.RawMessage(`{"app":"X"}`)})
	c, url := boot(t, jobs, dispatch.Config{})
	reg := register(t, url)
	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	// 33 MiB of base64 "A"s: a valid log field, one MiB past the cap.
	body := io.MultiReader(
		strings.NewReader(`{"state":"done","log":"`),
		io.LimitReader(repeatByte('A'), 33<<20),
		strings.NewReader(`"}`))
	resp, err := http.Post(url+leasePath(reg.WorkerID, lr.LeaseID, "complete"), "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized completion: status %d, want 413", resp.StatusCode)
	}
	got := jobs.completed["j1"]
	if got.State != "failed" || got.ExitCode != 1 || !strings.Contains(got.Error, "completion body exceeds") || got.Log != nil {
		t.Fatalf("jobs saw completion %+v; want the job failed with the cap named", got)
	}
	if st := c.Stats(); st.LeasesHeld != 0 {
		t.Fatalf("stats after oversized completion: %+v", st)
	}
	comp := dispatch.Completion{State: "done", Log: []byte("log")}
	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "complete"), comp, nil); code != http.StatusGone {
		t.Fatalf("retried completion: status %d, want 410", code)
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

func TestTornChunkImportsNothing(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1"})
	c, url := boot(t, jobs, dispatch.Config{})
	reg := register(t, url)
	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	chunk := encodeRuns(t, inject.Run{InjectionPoint: 0}, inject.Run{InjectionPoint: 1})
	torn := chunk[:len(chunk)-5]
	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "runs"), torn, nil); code != http.StatusBadRequest {
		t.Fatalf("torn chunk: status %d, want 400", code)
	}
	if len(jobs.appended["j1"]) != 0 {
		t.Fatalf("torn chunk imported %d runs, want 0 (all-or-nothing)", len(jobs.appended["j1"]))
	}
	if st := c.Stats(); st.RunsShippedTotal != 0 {
		t.Fatalf("torn chunk counted as shipped: %+v", st)
	}
}

func TestStopRequeuesLeasedJobs(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1"})
	c, url := boot(t, jobs, dispatch.Config{})
	reg := register(t, url)
	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	c.Stop()
	if got := jobs.requeuedJobs(); len(got) != 1 || got[0] != "j1" {
		t.Fatalf("stop requeued %v, want [j1]", got)
	}
	// Drain is not a worker death: no failover accounting.
	if st := c.Stats(); st.JobsFailedOverTotal != 0 || st.LeaseExpirationsTotal != 0 || st.WorkersLive != 0 {
		t.Fatalf("stats after stop: %+v", st)
	}
	// A stopped coordinator refuses new registrations with 410 so workers
	// back off and retry against the next boot.
	if code := post(t, url, "/v1/workers/register", dispatch.RegisterRequest{Name: "late"}, nil); code != http.StatusGone {
		t.Fatalf("register after stop: status %d, want 410", code)
	}
}

func TestRevokeJob(t *testing.T) {
	jobs := newFakeJobs(dispatch.Grant{JobID: "j1"})
	c, url := boot(t, jobs, dispatch.Config{})
	reg := register(t, url)
	var lr dispatch.LeaseResponse
	if code := post(t, url, "/v1/workers/"+reg.WorkerID+"/lease", struct{}{}, &lr); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	if !c.RevokeJob("j1") {
		t.Fatal("RevokeJob found no lease")
	}
	if c.RevokeJob("j1") {
		t.Fatal("second RevokeJob found a lease")
	}
	if code := post(t, url, leasePath(reg.WorkerID, lr.LeaseID, "heartbeat"), struct{}{}, nil); code != http.StatusGone {
		t.Fatalf("heartbeat after revoke: status %d, want 410", code)
	}
	// Revocation is finalization, not failover: nothing requeues.
	if len(jobs.requeuedJobs()) != 0 {
		t.Fatalf("revoked job was requeued: %v", jobs.requeuedJobs())
	}
}
