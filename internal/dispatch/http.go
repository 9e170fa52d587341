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

// HandleComplete serves POST /v1/workers/{worker}/leases/{lease}/complete.
// A store/manifest failure keeps the lease so the worker can retry the
// upload.
func (c *Coordinator) HandleComplete(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("lease")
	jobID, err := c.renew(r.PathValue("worker"), leaseID)
	if err != nil {
		writeGone(w, "lease")
		return
	}
	var comp Completion
	if err := json.NewDecoder(r.Body).Decode(&comp); err != nil {
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
