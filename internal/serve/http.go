package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"failatomic/internal/cli"
	"failatomic/internal/sched"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs           submit a campaign job (202; 429 when full
//	                          or over the tenant's quota, with a
//	                          drain-rate-derived Retry-After; 413 past
//	                          maxSpecBytes)
//	GET    /v1/jobs           paginated, filterable job index
//	                          (?token=&kind=&state=&crontab=&limit=&cursor=)
//	GET    /v1/jobs/{id}      job status (state, progress, exit code)
//	GET    /v1/jobs/{id}/events   SSE progress stream while the job lives
//	GET    /v1/jobs/{id}/log      final injection log (replog JSON lines)
//	GET    /v1/jobs/{id}/report   rendered classification report
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/crontabs       install a recurring spec (@every DURATION)
//	GET    /v1/crontabs       list installed crontabs
//	DELETE /v1/crontabs/{id}  uninstall a crontab
//	GET    /healthz           liveness (never authed)
//	GET    /metrics           expvar-style counters
//
// plus the dispatch protocol faworker processes speak (see
// internal/dispatch):
//
//	POST /v1/workers/register
//	POST /v1/workers/{worker}/lease
//	POST /v1/workers/{worker}/leases/{lease}/heartbeat
//	POST /v1/workers/{worker}/leases/{lease}/runs
//	POST /v1/workers/{worker}/leases/{lease}/complete
//
// With tokens configured (Config.AuthToken/ReadToken), mutating endpoints
// — submission, cancellation and every worker RPC — require the write
// token; the read endpoints accept either token.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.requireAuth(scopeWrite, s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.requireAuth(scopeRead, s.handleList))
	mux.HandleFunc("POST /v1/crontabs", s.requireAuth(scopeWrite, s.handleCrontabCreate))
	mux.HandleFunc("GET /v1/crontabs", s.requireAuth(scopeRead, s.handleCrontabList))
	mux.HandleFunc("DELETE /v1/crontabs/{id}", s.requireAuth(scopeWrite, s.handleCrontabDelete))
	mux.HandleFunc("GET /v1/jobs/{id}", s.requireAuth(scopeRead, s.handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.requireAuth(scopeRead, s.handleEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/log", s.requireAuth(scopeRead, s.handleLog))
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.requireAuth(scopeRead, s.handleReport))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.requireAuth(scopeWrite, s.handleCancel))
	mux.HandleFunc("POST /v1/workers/register", s.requireAuth(scopeWrite, s.coord.HandleRegister))
	mux.HandleFunc("POST /v1/workers/{worker}/lease", s.requireAuth(scopeWrite, s.coord.HandleLease))
	mux.HandleFunc("POST /v1/workers/{worker}/leases/{lease}/heartbeat", s.requireAuth(scopeWrite, s.coord.HandleHeartbeat))
	mux.HandleFunc("POST /v1/workers/{worker}/leases/{lease}/runs", s.requireAuth(scopeWrite, s.coord.HandleShip))
	mux.HandleFunc("POST /v1/workers/{worker}/leases/{lease}/complete", s.requireAuth(scopeWrite, s.coord.HandleComplete))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.requireAuth(scopeRead, s.handleMetrics))
	return mux
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// maxSpecBytes caps a job or crontab spec request body; a spec is well
// under 1 KiB.
const maxSpecBytes = 64 << 10

// decodeSpec decodes a spec request body into v, answering an oversized
// body with 413 and a malformed one with 400; it reports whether v was
// decoded.
func decodeSpec(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, apiError{Error: fmt.Sprintf("bad %s spec: %v", what, err)})
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeSpec(w, r, "job", &spec) {
		return
	}
	j, err := s.submit(spec, s.tenantOf(r))
	var overQuota *sched.ErrOverQuota
	switch {
	case errors.Is(err, ErrQueueFull), errors.As(err, &overQuota):
		// Both refusals are back-pressure; the Retry-After hint is derived
		// from the observed queue drain rate, not a constant.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleEvents streams the job's full event history and then follows it
// live, SSE-framed, until the terminal event, the client disconnecting,
// or a server drain.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	cursor := 0
	for {
		batch, pulse, done := j.events.from(cursor)
		for _, e := range batch {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			fl.Flush()
			cursor += len(batch)
		}
		if done {
			return
		}
		select {
		case <-pulse:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// result serves a stored artifact of a done job.
func (s *Server) result(w http.ResponseWriter, r *http.Request, contentType string, pick func(JobStatus) string) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	st := j.status()
	// Drifted jobs store their log and report too — the divergence is the
	// finding, and the artifacts are its evidence.
	if st.State != StateDone && st.State != StateDrifted {
		msg := fmt.Sprintf("job is %s, results exist only for states %q and %q", st.State, StateDone, StateDrifted)
		if st.Error != "" {
			msg += ": " + st.Error
		}
		writeJSON(w, http.StatusConflict, apiError{Error: msg})
		return
	}
	data, err := s.store.Get(pick(st))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	s.result(w, r, "application/x-ndjson", func(st JobStatus) string { return st.Log })
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.result(w, r, "text/plain; charset=utf-8", func(st JobStatus) string { return st.Report })
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	// A job still in the queue is cancelled synchronously; one leased to a
	// remote worker has its lease revoked and finalizes here; one running
	// in-process is cancelled through its context and finalizes on the
	// worker goroutine.
	if s.removePending(j) {
		j.mu.Lock()
		j.userCancelled = true
		j.mu.Unlock()
		s.metrics.jobsCancelled.Add(1)
		s.finalizeBestEffort(j, StateCancelled, cli.ExitFailure, "cancelled while queued", "", "")
	} else if !s.cancelRemote(j) {
		// requestCancel marks the job user-cancelled even when no context
		// exists yet, which closes the race with a concurrent claim: both
		// the in-process runner and the remote claim re-check the flag
		// right after taking the job.
		j.requestCancel()
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	started := s.started
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": started, "draining": draining})
}

// handleMetrics renders the counters as a flat JSON object with sorted
// keys, expvar-style.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.queueGauges(), s.coord.Stats())
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, "{")
	for i, k := range keys {
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		fmt.Fprintf(w, "  %q: %d%s\n", k, snap[k], comma)
	}
	fmt.Fprintln(w, "}")
}
