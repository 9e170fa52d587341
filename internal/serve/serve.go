// Package serve is the failatomic campaign service: a long-running HTTP
// server that accepts detection-campaign jobs, runs them on a bounded
// worker pool, streams per-run progress over SSE, and persists results in
// a content-addressed store under a server data directory.
//
// Durability model: a job is admitted only after its spec is on disk;
// while it runs, every completed injector run streams into a
// replog.Journal in the job's directory; when it finishes, the final log
// and rendered report are deposited in the result store and a terminal
// manifest (done.json) is written atomically. A crashed or restarted
// server therefore re-queues every job without a terminal manifest and
// resumes it through the journal-splice path, producing output
// byte-identical to an uninterrupted run over the deterministic bundled
// workloads — the same guarantee fadetect -resume gives locally.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"failatomic/internal/cli"
	"failatomic/internal/detect"
	"failatomic/internal/dispatch"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
	"failatomic/internal/sched"
	"failatomic/internal/serve/store"
)

// Defaults for Config zero values.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 16
)

// Config parameterizes a Server.
type Config struct {
	// DataDir roots the durable state: jobs/<id>/ directories and the
	// content-addressed result store.
	DataDir string
	// Workers bounds the number of concurrently running jobs
	// (0 = DefaultWorkers).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a POST
	// past it is rejected with 429 (0 = DefaultQueueDepth).
	QueueDepth int
	// AuthToken, when set, gates every mutating endpoint (submit, cancel,
	// worker RPCs) behind "Authorization: Bearer <AuthToken>" and read
	// endpoints behind either token.
	AuthToken string
	// ReadToken, when set, grants the read-only endpoints (status, events,
	// log, report, metrics) without granting mutations.
	ReadToken string
	// CoordinatorOnly disables the in-process pool entirely: jobs run only
	// on registered faworker processes. Without it the server is hybrid —
	// remote workers are preferred while any are live, and the in-process
	// pool executes whenever none are.
	CoordinatorOnly bool
	// LeaseTTL is the worker-lease heartbeat deadline
	// (0 = dispatch.DefaultLeaseTTL). A worker silent for this long loses
	// its lease and the job fails over.
	LeaseTTL time.Duration
	// WorkerPoll is the idle-poll interval suggested to workers
	// (0 = dispatch.DefaultPoll).
	WorkerPoll time.Duration
	// Quotas is the multi-tenant quota table (faserve -quotas). The zero
	// value is a single unlimited tenant, which preserves the pre-sched
	// behavior: FIFO within one priority class, QueueDepth the only cap.
	Quotas sched.Config
}

// Server runs campaign jobs from a durable queue.
type Server struct {
	cfg   Config
	store *store.Store

	// baseCtx parents every job context; Drain cancels it, which is what
	// parks running jobs.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// coord leases queued jobs to remote faworker processes; remote holds
	// the per-job shipping state while a lease is out.
	coord *dispatch.Coordinator

	mu   sync.Mutex
	jobs map[string]*job
	// sched orders the queued jobs: per-tenant quotas, priority classes,
	// weighted fair share. Guarded by mu (the scheduler itself is a pure
	// data structure).
	sched    *sched.Scheduler
	remote   map[string]*remoteJob
	crontabs map[string]*crontab
	draining bool
	started  bool
	// lastDone indexes, per canonical spec, the newest clean done run's
	// stored log — the drift gate's baseline (see drift.go).
	lastDone map[string]doneRun

	wake     chan struct{}
	drainCh  chan struct{}
	cronWake chan struct{}
	wg       sync.WaitGroup

	metrics metrics
	// drain tracks recent job completions; the 429 Retry-After hint is
	// derived from its observed drain rate (see retry.go).
	drain drainRate
}

// New builds a server over its data directory (created if missing).
// Call Start to recover persisted jobs and launch the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if err := cfg.Quotas.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	st, err := store.Open(filepath.Join(cfg.DataDir, "store"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      st,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		sched:      sched.New(cfg.Quotas),
		remote:     make(map[string]*remoteJob),
		crontabs:   make(map[string]*crontab),
		lastDone:   make(map[string]doneRun),
		wake:       make(chan struct{}, cfg.Workers),
		drainCh:    make(chan struct{}),
		cronWake:   make(chan struct{}, 1),
	}
	s.coord = dispatch.New(dispatch.Config{
		Jobs:          coordJobs{s},
		LeaseTTL:      cfg.LeaseTTL,
		Poll:          cfg.WorkerPoll,
		OnWorkersIdle: s.signalWork,
	})
	return s, nil
}

// Start recovers persisted jobs from the data directory — terminal jobs
// become queryable again, unfinished ones are re-queued for resume — and
// launches the dispatch coordinator plus (unless CoordinatorOnly) the
// in-process worker pool.
func (s *Server) Start() error {
	if err := s.recoverJobs(); err != nil {
		return err
	}
	if err := s.recoverCrontabs(); err != nil {
		return err
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	s.coord.Start()
	s.wg.Add(1)
	go s.cronRunner()
	if !s.cfg.CoordinatorOnly {
		for i := 0; i < s.cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return nil
}

// Drain stops the server gracefully: admission closes (503), queued jobs
// stay durable for the next boot, running jobs are cancelled and parked
// with their journals intact, open SSE streams end, and Drain waits —
// bounded by ctx — for every worker to flush and exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	s.baseCancel()
	// Stopping the coordinator drops every worker lease and parks the
	// leased jobs with their journals intact; workers see 410 on their
	// next RPC and the jobs resume at the next boot.
	s.coord.Stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}
}

// recoverJobs scans jobs/<id>/ at boot. Jobs with a terminal manifest are
// loaded read-only (their event stream replays just the terminal event);
// the rest are re-queued — the resume cap intentionally ignores
// QueueDepth, which governs admission, not recovery.
//
// Recovery replays the admission history into the scheduler: manifests
// are processed in Seq order, terminal jobs advance the ordinal counters
// (NoteArrival), queued jobs re-enter the queue with their persisted keys
// (Restore). The rebuilt scheduler therefore dequeues the surviving jobs
// in exactly the order the crashed process would have — the multi-tenant
// extension of the byte-identity restart guarantee.
func (s *Server) recoverJobs() error {
	jobsDir := filepath.Join(s.cfg.DataDir, "jobs")
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var manifests []specManifest
	dirs := make(map[string]string)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(jobsDir, e.Name())
		var sm specManifest
		if err := readJSONFile(filepath.Join(dir, "spec.json"), &sm); err != nil {
			// A half-created job directory (crash between mkdir and spec
			// write) is unrecoverable and harmless; skip it.
			continue
		}
		manifests = append(manifests, sm)
		dirs[sm.ID] = dir
	}
	sort.Slice(manifests, func(i, k int) bool {
		if manifests[i].Sched.Seq != manifests[k].Sched.Seq {
			return manifests[i].Sched.Seq < manifests[k].Sched.Seq
		}
		return manifests[i].ID < manifests[k].ID
	})
	for _, sm := range manifests {
		j := &job{id: sm.ID, spec: sm.Spec, dir: dirs[sm.ID], item: sm.Sched, events: newBroadcaster()}
		var dm doneManifest
		if err := readJSONFile(j.donePath(), &dm); err == nil {
			j.state = dm.State
			j.exitCode = dm.ExitCode
			j.errMsg = dm.Error
			j.logSHA = dm.Log
			j.reportSHA = dm.Report
			j.completedAt = dm.CompletedAt
			j.events.publish(Event{Type: EventEnd, State: dm.State, ExitCode: dm.ExitCode, Error: dm.Error})
			j.events.close()
			s.jobs[j.id] = j
			s.sched.NoteArrival(sm.Sched)
			// Rebuild the drift gate's baseline index from clean done
			// runs of gated kinds; CompletedAt keeps the newest per spec.
			if dm.State == StateDone && dm.Log != "" && sm.Spec.gated() {
				s.noteLastDone(sm.Spec, dm.Log, dm.CompletedAt)
			}
			continue
		}
		// A spec.json admission never wrote (hand-edited, or from a build
		// that accepted more) fails here rather than running as something
		// it does not say.
		if err := sm.Spec.Validate(); err != nil {
			s.jobs[j.id] = j
			s.sched.NoteArrival(sm.Sched)
			s.metrics.jobsFailed.Add(1)
			s.finalizeBestEffort(j, StateFailed, cli.ExitFailure, fmt.Sprintf("serve: invalid job spec: %v", err), "", "")
			continue
		}
		j.state = StateQueued
		j.enqueuedAt = time.Now()
		j.events.publish(Event{Type: "state", State: StateQueued})
		s.jobs[j.id] = j
		// A journal exists exactly when the job had started executing
		// (drain parks keep it; kill -9 can't remove it), so its presence
		// recovers the Started mark spec.json — written at admission —
		// cannot carry: the interrupted job resumes ahead of the queue,
		// as the uninterrupted process would have finished it.
		it := sm.Sched
		if _, err := os.Stat(j.journalPath()); err == nil {
			it.Started = true
		}
		s.sched.Restore(it)
		s.metrics.noteQueued(sm.Spec)
	}
	return nil
}

// specManifest is the durable admission record (spec.json). Sched is the
// job's immutable scheduling key; restoring it at boot is what makes the
// post-restart dequeue order identical to the uninterrupted one.
type specManifest struct {
	ID    string     `json:"id"`
	Spec  JobSpec    `json:"spec"`
	Sched sched.Item `json:"sched"`
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// submit admits one job: durable spec first, then the in-memory queue.
// The error distinguishes the two admission-control refusals.
var (
	// ErrQueueFull is returned (as 429) when the pending queue is at
	// QueueDepth.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining is returned (as 503) once a drain has begun.
	ErrDraining = errors.New("serve: server is draining")
)

// submit admits one job for tenant (the quota-table name resolved from
// the request's bearer token; "" is the default tenant): durable spec
// first, then the scheduler.
func (s *Server) submit(spec JobSpec, tenant string) (*job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	pri, _ := sched.ParsePriority(spec.Priority)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if s.sched.Depth() >= s.cfg.QueueDepth {
		s.metrics.jobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	it, err := s.sched.Admit(id, tenant, pri)
	if err != nil {
		s.metrics.quotaRejections.Add(1)
		return nil, err
	}
	dir := filepath.Join(s.cfg.DataDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.sched.Remove(id)
		return nil, fmt.Errorf("serve: %w", err)
	}
	j := &job{id: id, spec: spec, dir: dir, state: StateQueued, item: it, enqueuedAt: time.Now(), events: newBroadcaster()}
	if err := writeFileAtomic(j.specPath(), specManifest{ID: id, Spec: spec, Sched: it}); err != nil {
		s.sched.Remove(id)
		os.RemoveAll(dir)
		return nil, err
	}
	j.events.publish(Event{Type: "state", State: StateQueued})
	s.jobs[id] = j
	s.metrics.noteQueued(spec)
	s.signalWork()
	return j, nil
}

// newJobID returns a random 16-hex-digit identifier; collisions across
// restarts are guarded by the per-job directory create.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// job looks one job up by id.
func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// queueGauges snapshots the queue-shaped gauges for /metrics.
func (s *Server) queueGauges() queueGauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	byKind := make(map[string]int)
	for _, it := range s.sched.Items() {
		if j := s.jobs[it.ID]; j != nil {
			byKind[j.spec.JobKind()]++
		}
	}
	return queueGauges{
		depth:      s.sched.Depth(),
		byKind:     byKind,
		byPriority: s.sched.DepthByPriority(),
		crontabs:   len(s.crontabs),
	}
}

// signalWork nudges a sleeping worker. The channel is sized to the pool,
// so a full channel means every worker already has a wakeup pending; a
// woken worker drains the queue until empty, which keeps the signal
// lossy-but-sufficient.
func (s *Server) signalWork() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// popPending claims the scheduler's next eligible job, or nil if none
// (or draining, or every queued tenant is at its running cap). The
// in-process pool (remote=false) additionally defers to the worker
// fleet: while any remote worker is live — or in CoordinatorOnly mode,
// always — queued jobs are left for lease acquisition. When the last
// worker dies the dispatch sweeper wakes the pool, so deferred jobs never
// strand.
func (s *Server) popPending(remote bool) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	if !remote && (s.cfg.CoordinatorOnly || s.coord.LiveWorkers() > 0) {
		return nil
	}
	it, ok := s.sched.Dequeue()
	if !ok {
		return nil
	}
	j := s.jobs[it.ID]
	if j == nil {
		// Unreachable: every scheduled item has a jobs entry. Release the
		// phantom running slot rather than leak it.
		s.sched.Done(it.Token)
		return nil
	}
	if !j.enqueuedAt.IsZero() {
		s.metrics.noteQueueWait(time.Since(j.enqueuedAt))
	}
	return j
}

// removePending removes a still-queued job (DELETE before it started);
// it reports whether the job was found in the queue.
func (s *Server) removePending(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Remove(j.id)
}

// schedDone releases the job's running slot after a terminal outcome,
// feeds the drain-rate estimator behind Retry-After, and wakes a worker —
// a tenant at MaxRunning may have queued jobs that just became eligible.
func (s *Server) schedDone(j *job) {
	s.mu.Lock()
	s.sched.Done(j.item.Token)
	s.mu.Unlock()
	s.drain.note(time.Now())
	s.signalWork()
}

// schedRequeue returns a dequeued job to the queue — lease failover or a
// drain park. Requeue marks the item started, so it resumes ahead of
// every job that has never run.
func (s *Server) schedRequeue(j *job) {
	s.mu.Lock()
	s.sched.Requeue(j.item)
	s.mu.Unlock()
	s.signalWork()
}

// worker is one pool goroutine: claim, run, repeat; sleep when the queue
// is empty; exit on drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		if j := s.popPending(false); j != nil {
			s.runJob(j)
			continue
		}
		select {
		case <-s.wake:
		case <-s.drainCh:
			return
		}
	}
}

// runJob executes one claimed job end to end and classifies its outcome:
// done (with exit-code-equivalent), cancelled (DELETE), parked (drain),
// or failed.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.setRunning(cancel)
	// Close the admission race: a DELETE that arrived between the queue
	// pop and setRunning recorded userCancelled but had no context to
	// cancel yet.
	if j.isUserCancelled() {
		cancel()
	}
	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)

	err := s.executeJob(ctx, j)
	switch {
	case err == nil:
		// settle finalized the job.
	case j.isUserCancelled():
		s.metrics.jobsCancelled.Add(1)
		s.finalizeBestEffort(j, StateCancelled, cli.ExitFailure, fmt.Sprintf("cancelled: %v", err), "", "")
		s.schedDone(j)
	case s.baseCtx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// Drain: park with the journal intact; the next boot resumes it.
		s.metrics.jobsParked.Add(1)
		j.park()
		s.schedRequeue(j)
	default:
		s.metrics.jobsFailed.Add(1)
		s.finalizeBestEffort(j, StateFailed, cli.ExitFailure, err.Error(), "", "")
		s.schedDone(j)
	}
}

// finalizeBestEffort finalizes a job with its stored results ("" for
// none); a manifest write failure is unrecoverable bookkeeping (the job
// will re-run at next boot) and is folded into the job's error message.
func (s *Server) finalizeBestEffort(j *job, state string, exitCode int, msg, logSHA, reportSHA string) {
	if err := j.finalize(state, exitCode, msg, logSHA, reportSHA); err != nil {
		j.mu.Lock()
		j.errMsg = msg + "; " + err.Error()
		j.mu.Unlock()
	}
}

// executeJob runs one job end to end through the kind table: resume the
// journal, stream runs into it (and the SSE feed), run the job, and
// settle its log and report.
func (s *Server) executeJob(ctx context.Context, j *job) error {
	program, lang, seed := j.spec.JournalIdentity()
	completed, journal, err := replog.ResumeJournalSeeded(j.journalPath(), program, lang, seed)
	if err != nil {
		return err
	}
	j.noteSpliced(len(completed))
	s.metrics.runsSpliced.Add(int64(len(completed)))

	out, err := j.spec.Run(ctx, completed, func(r inject.Run) error {
		if err := journal.Append(r); err != nil {
			return err
		}
		s.metrics.runsExecuted.Add(1)
		if r.Status != inject.RunOK {
			s.metrics.pointsQuarantined.Add(1)
		}
		j.noteRun(r)
		return nil
	})
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s.metrics.noteSnapshots(out.Result)
	log, err := out.Log()
	if err != nil {
		return err
	}
	// The drift gate compares the campaign's own classification: no
	// re-parse of the log just written.
	return s.settle(j, log, []byte(out.Report), out.ExitCode, out.Classification, nil)
}

// settle is the completion step in-process and worker-run jobs share:
// store the log and report, run the drift gate on fresh (nil for kinds
// the gate skips), and finalize the job done or drifted. claim, when
// set, is the last gate before finalizing — a leased job that lost a race
// to a cancel drops its upload there. Only a store failure is returned;
// the job is then still unfinalized.
func (s *Server) settle(j *job, log, report []byte, exitCode int, fresh *detect.Classification, claim func() bool) error {
	logSHA, err := s.store.Put(log)
	if err != nil {
		return err
	}
	reportSHA, err := s.store.Put(report)
	if err != nil {
		return err
	}
	state, errMsg := StateDone, ""
	if fresh != nil {
		if drift := s.driftAgainstLast(j.spec, fresh); len(drift) > 0 {
			state, exitCode, errMsg = StateDrifted, cli.ExitDrift, driftMessage(drift)
		}
	}
	if claim != nil && !claim() {
		return nil
	}
	if state == StateDrifted {
		s.metrics.jobsDrifted.Add(1)
	} else {
		s.metrics.jobsDone.Add(1)
		if fresh != nil {
			s.noteLastDone(j.spec, logSHA, time.Now())
		}
	}
	s.finalizeBestEffort(j, state, exitCode, errMsg, logSHA, reportSHA)
	s.schedDone(j)
	return nil
}
