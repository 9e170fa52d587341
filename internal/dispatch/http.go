// HTTP handlers and wire types for the coordinator side of the protocol.
// The coordinator does not own a mux: internal/serve mounts these under
// its API (behind the write-scope bearer check), so workers authenticate
// exactly like submitting clients.
package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"failatomic/internal/replog"
)

// RegisterRequest is the body of POST /v1/workers/register.
type RegisterRequest struct {
	// Name labels the worker for operators (hostname:pid by convention).
	Name string `json:"name"`
}

// RegisterResponse tells a worker its identity and cadence. Durations are
// JSON-encoded as nanoseconds (Go's time.Duration encoding).
type RegisterResponse struct {
	WorkerID string        `json:"workerId"`
	LeaseTTL time.Duration `json:"leaseTTL"`
	Poll     time.Duration `json:"poll"`
}

// LeaseResponse is the 200 body of a successful lease acquisition: the
// lease identity plus the job grant. An idle queue returns 204 instead.
type LeaseResponse struct {
	LeaseID  string        `json:"leaseId"`
	LeaseTTL time.Duration `json:"leaseTTL"`
	Grant
}

// HeartbeatResponse acknowledges a renewal.
type HeartbeatResponse struct {
	LeaseTTL time.Duration `json:"leaseTTL"`
}

// ShipResponse acknowledges a run shipment. Duplicates counts runs the
// journal had already seen (retried chunks, failover re-runs) — dropped,
// not errors.
type ShipResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// apiError is the JSON error body, matching the serve API's shape.
type apiError struct {
	Error string `json:"error"`
	// Gone marks a revoked or unknown worker/lease (HTTP 410): the worker
	// must abandon the job (its lease) or re-register (its identity).
	Gone bool `json:"gone,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeGone(w http.ResponseWriter, what string) {
	writeJSON(w, http.StatusGone, apiError{Error: what + " is unknown or expired; re-register", Gone: true})
}

// maxRegisterBytes caps a register request body, which carries only a
// worker name; the same cap as a job spec's.
const maxRegisterBytes = 64 << 10

// HandleRegister serves POST /v1/workers/register. An oversized body gets
// 413, a malformed one 400.
func (c *Coordinator) HandleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRegisterBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{Error: fmt.Sprintf("bad register request: %v", err)})
		return
	}
	id, err := c.register(req.Name)
	if err == errGone {
		writeGone(w, "coordinator")
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{WorkerID: id, LeaseTTL: c.cfg.LeaseTTL, Poll: c.cfg.Poll})
}

// HandleLease serves POST /v1/workers/{worker}/lease: 200 with a grant,
// 204 when the queue is idle, 410 when the worker must re-register.
func (c *Coordinator) HandleLease(w http.ResponseWriter, r *http.Request) {
	grant, l, ok, err := c.acquire(r.PathValue("worker"))
	if err == errGone {
		writeGone(w, "worker")
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, LeaseResponse{LeaseID: l.id, LeaseTTL: c.cfg.LeaseTTL, Grant: grant})
}

// HandleHeartbeat serves POST /v1/workers/{worker}/leases/{lease}/heartbeat.
func (c *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if _, err := c.renew(r.PathValue("worker"), r.PathValue("lease")); err != nil {
		writeGone(w, "lease")
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{LeaseTTL: c.cfg.LeaseTTL})
}

// HandleShip serves POST /v1/workers/{worker}/leases/{lease}/runs. The
// body is one replog chunk; a torn chunk imports nothing (400, the worker
// retries the whole chunk — duplicates from the retry are deduped).
func (c *Coordinator) HandleShip(w http.ResponseWriter, r *http.Request) {
	jobID, err := c.renew(r.PathValue("worker"), r.PathValue("lease"))
	if err != nil {
		writeGone(w, "lease")
		return
	}
	runs, err := replog.DecodeChunk(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	accepted, err := c.cfg.Jobs.AppendRuns(jobID, runs)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	c.runsShippedTotal.Add(int64(accepted))
	writeJSON(w, http.StatusOK, ShipResponse{Accepted: accepted, Duplicates: len(runs) - accepted})
}

// maxCompleteBytes caps a completion body: the job's log and report,
// base64-encoded in the JSON, so a completion is about 4/3 of their size.
// The largest a bundled job produces is RegExp's detect job: a 451 KB log
// (about 0.6 MB on the wire) at Repeats 1, and a 7.8 MB log (about
// 10.4 MB) at Repeats 4. A log grows with the square of Repeats, so the
// cap covers it up to Repeats 6 (about 23 MB), three times the room of
// Repeats 4.
const maxCompleteBytes = 32 << 20

// HandleComplete serves POST /v1/workers/{worker}/leases/{lease}/complete.
// A store/manifest failure keeps the lease so the worker can retry the
// upload. A body over maxCompleteBytes gets 413 and fails the job: the
// same upload could never be accepted, and a lease left to expire would
// re-lease the job to run and be refused again, forever.
func (c *Coordinator) HandleComplete(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("lease")
	jobID, err := c.renew(r.PathValue("worker"), leaseID)
	if err != nil {
		writeGone(w, "lease")
		return
	}
	var comp Completion
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCompleteBytes)).Decode(&comp); err != nil {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			c.failTooBig(w, jobID, leaseID)
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad completion: %v", err)})
		return
	}
	if comp.State != "done" && comp.State != "failed" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("completion state %q must be done or failed", comp.State)})
		return
	}
	if err := c.cfg.Jobs.Complete(jobID, comp); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	c.release(leaseID)
	writeJSON(w, http.StatusOK, struct{}{})
}

// failTooBig fails a job whose completion body exceeded maxCompleteBytes
// and answers 413. The lease is released once the job is failed, so the
// worker's retry gets 410 and gives the job up.
func (c *Coordinator) failTooBig(w http.ResponseWriter, jobID, leaseID string) {
	msg := fmt.Sprintf("completion body exceeds %d bytes", maxCompleteBytes)
	if err := c.cfg.Jobs.Complete(jobID, Completion{State: "failed", ExitCode: 1 /* cli.ExitFailure */, Error: msg}); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	c.release(leaseID)
	writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: msg})
}
