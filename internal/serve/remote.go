package serve

import (
	"encoding/json"
	"fmt"

	"failatomic/internal/cli"
	"failatomic/internal/detect"
	"failatomic/internal/dispatch"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
)

// Remote execution: the dispatch.Jobs adapter. A remotely leased job
// lives through the same states and emits the same event stream as an
// in-process one — claimed (running), runs spliced into its journal as
// the worker ships them, finalized from the worker's uploaded artifacts —
// so SSE subscribers and the durability contract cannot tell the modes
// apart. The coordinator's journal copy exists purely for failover: when
// a lease expires the job requeues and the next claimant receives the
// journaled runs as its resume prefix, exactly like a local -resume.

// remoteJob is the coordinator-side state of one leased job: the open
// journal shipped runs are spliced into, and the run keys already
// journaled (the dedupe set — a retried chunk or a failed-over worker's
// re-run of an already-shipped experiment is dropped, first occurrence
// wins).
type remoteJob struct {
	j       *job
	journal *replog.Journal
	seen    map[inject.RunKey]bool
}

// coordJobs implements dispatch.Jobs over the server's queue.
type coordJobs struct{ s *Server }

// failClaim finalizes a job whose lease grant failed before it reached a
// worker, releasing the running slot the dequeue charged.
func (s *Server) failClaim(j *job, msg string) {
	s.metrics.jobsFailed.Add(1)
	s.finalizeBestEffort(j, StateFailed, cli.ExitFailure, msg, "", "")
	s.schedDone(j)
}

// Claim pops the oldest queued job for a worker lease: it opens (and
// resumes) the job's journal, keeps it for run shipments, and grants the
// worker the spec plus the journaled-run prefix.
func (cj coordJobs) Claim() (dispatch.Grant, bool) {
	s := cj.s
	for {
		j := s.popPending(true)
		if j == nil {
			return dispatch.Grant{}, false
		}
		program, lang, seed := j.spec.JournalIdentity()
		completed, journal, err := replog.ResumeJournalSeeded(j.journalPath(), program, lang, seed)
		if err != nil {
			s.failClaim(j, err.Error())
			continue
		}
		prefix, err := replog.EncodeChunkBytes(completed)
		if err != nil {
			journal.Close()
			s.failClaim(j, err.Error())
			continue
		}
		specRaw, err := json.Marshal(j.spec)
		if err != nil {
			journal.Close()
			s.failClaim(j, err.Error())
			continue
		}

		seen := make(map[inject.RunKey]bool, len(completed))
		for key := range completed {
			seen[key] = true
		}
		s.mu.Lock()
		s.remote[j.id] = &remoteJob{j: j, journal: journal, seen: seen}
		s.mu.Unlock()
		j.setRunning(nil)
		s.metrics.jobsRunning.Add(1)
		// Close the admission race exactly like runJob does: a DELETE that
		// landed between the queue pop and the lease grant.
		if j.isUserCancelled() {
			s.cancelRemote(j)
			return dispatch.Grant{}, false
		}
		j.noteSpliced(len(completed))
		s.metrics.runsSpliced.Add(int64(len(completed)))
		return dispatch.Grant{JobID: j.id, Spec: specRaw, Prefix: prefix}, true
	}
}

// lookupRemote fetches the leased-job state for jobID.
func (s *Server) lookupRemote(jobID string) (*remoteJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rj := s.remote[jobID]
	if rj == nil {
		return nil, fmt.Errorf("serve: job %s is not leased", jobID)
	}
	return rj, nil
}

// AppendRuns splices freshly shipped runs into the job's journal, event
// stream and progress counters. Already-seen points are dropped: a
// retried chunk after a lost response, or a failed-over worker re-running
// the clean run, must not double-journal or double-count.
func (cj coordJobs) AppendRuns(jobID string, runs []inject.Run) (int, error) {
	s := cj.s
	rj, err := s.lookupRemote(jobID)
	if err != nil {
		return 0, err
	}
	accepted := 0
	for _, run := range runs {
		s.mu.Lock()
		dup := rj.seen[run.Key()]
		if !dup {
			rj.seen[run.Key()] = true
		}
		s.mu.Unlock()
		if dup {
			continue
		}
		if err := rj.journal.Append(run); err != nil {
			return accepted, err
		}
		if run.Status != inject.RunOK {
			s.metrics.pointsQuarantined.Add(1)
		}
		// A shipped run was freshly executed, just on a worker; the executed
		// counter stays uniform across execution modes.
		s.metrics.runsExecuted.Add(1)
		rj.j.noteRun(run)
		accepted++
	}
	return accepted, nil
}

// Complete finalizes a leased job from the worker's terminal upload. Done
// jobs deposit the worker-rendered log and report — byte-identical to a
// local fadetect run by construction — in the content-addressed store.
func (cj coordJobs) Complete(jobID string, comp dispatch.Completion) error {
	s := cj.s
	rj, err := s.lookupRemote(jobID)
	if err != nil {
		return err
	}
	if comp.State == StateFailed {
		if s.detachRemote(jobID, rj) {
			s.metrics.jobsFailed.Add(1)
			s.finalizeBestEffort(rj.j, StateFailed, comp.ExitCode, comp.Error, "", "")
			s.schedDone(rj.j)
		}
		return nil
	}
	// The drift gate runs on the coordinator even for worker-executed
	// jobs: the baseline index is server state, and the uploaded log is
	// the same replog a local run would have produced.
	var fresh *detect.Classification
	if rj.j.spec.gated() {
		fresh = classifyLog(comp.Log)
	}
	// Losing the detach race to a user cancel drops the upload.
	return s.settle(rj.j, comp.Log, comp.Report, comp.ExitCode, fresh, func() bool { return s.detachRemote(jobID, rj) })
}

// Requeue returns a leased job to the queue after its lease was lost —
// expiry (worker death) or coordinator shutdown. The journal holds every
// run shipped so far; the next claimant resumes from it.
func (cj coordJobs) Requeue(jobID string) {
	s := cj.s
	rj, err := s.lookupRemote(jobID)
	if err != nil {
		return
	}
	if !s.detachRemote(jobID, rj) {
		return
	}
	rj.j.park()
	// The admission-time scheduling key is unchanged, so the failed-over
	// job re-enters ahead of everything admitted after it — the seniority
	// the old front-of-queue requeue encoded, now per (class, fair share).
	s.schedRequeue(rj.j)
}

// detachRemote closes the coordinator's journal handle and drops the
// leased-job state, decrementing the running gauge. It reports whether
// this call was the one that detached — concurrent finalization paths
// (cancel vs. completion vs. expiry) race benignly and exactly one wins.
func (s *Server) detachRemote(jobID string, rj *remoteJob) bool {
	s.mu.Lock()
	if s.remote[jobID] != rj {
		s.mu.Unlock()
		return false
	}
	delete(s.remote, jobID)
	s.mu.Unlock()
	rj.journal.Close()
	s.metrics.jobsRunning.Add(-1)
	return true
}

// cancelRemote finalizes a user-cancelled leased job: the lease is
// revoked (the worker's next RPC gets 410 and it abandons the campaign)
// and the job finalizes cancelled. Reports whether the job was remote.
func (s *Server) cancelRemote(j *job) bool {
	s.mu.Lock()
	rj := s.remote[j.id]
	s.mu.Unlock()
	if rj == nil {
		return false
	}
	s.coord.RevokeJob(j.id)
	if !s.detachRemote(j.id, rj) {
		return false
	}
	s.metrics.jobsCancelled.Add(1)
	s.finalizeBestEffort(j, StateCancelled, cli.ExitFailure, "cancelled while running remotely", "", "")
	s.schedDone(j)
	return true
}
