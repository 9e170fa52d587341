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
	"bytes"
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

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/core"
	"failatomic/internal/detect"
	"failatomic/internal/dispatch"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/repair"
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
	if err := s.rewriteIndex(); err != nil {
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
			// detect runs; CompletedAt keeps the newest per spec.
			if dm.State == StateDone && dm.Log != "" && sm.Spec.JobKind() == KindDetect {
				s.noteLastDone(sm.Spec, dm.Log, dm.CompletedAt)
			}
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
		s.metrics.jobsQueued.Add(1)
		if sm.Spec.JobKind() == KindConcur {
			s.metrics.jobsConcur.Add(1)
		}
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

// validateSpec runs the admission checks shared by direct submissions
// and crontab installs — a crontab must refuse at install time exactly
// what a POST /v1/jobs would refuse.
func validateSpec(spec JobSpec) error {
	// Admission is kind-first: a concur job's app names a concurrent
	// target, not a Table 1 row, and its schedule knobs are meaningless on
	// the other kinds.
	switch spec.JobKind() {
	case KindConcur:
		if _, ok := concur.ByName(spec.App); !ok {
			return fmt.Errorf("serve: unknown concurrent target %q (have: %v)", spec.App, concur.Names())
		}
		if err := spec.concurSpec().Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if spec.Perturb != "" {
			return fmt.Errorf("serve: perturb does not apply to concur jobs (the schedule plan is the fault strategy)")
		}
	case KindDetect, KindRepair:
		if _, ok := apps.ByName(spec.App); !ok {
			return fmt.Errorf("serve: unknown application %q (have: %v)", spec.App, apps.Names())
		}
		if spec.JobKind() == KindRepair && !repair.SupportedApp(spec.App) {
			return fmt.Errorf("serve: application %q has no repair source tree", spec.App)
		}
		if spec.Workers != 0 || spec.Schedules != 0 || spec.Seed != 0 {
			return fmt.Errorf("serve: workers/schedules/seed apply only to concur jobs")
		}
	default:
		return fmt.Errorf("serve: unknown job kind %q (have: %q, %q, %q)", spec.Kind, KindDetect, KindRepair, KindConcur)
	}
	if _, err := core.ParseSnapshotMode(spec.Snapshot); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := inject.ParsePerturbations(spec.Perturb); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := sched.ParsePriority(spec.Priority); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// submit admits one job for tenant (the quota-table name resolved from
// the request's bearer token; "" is the default tenant): durable spec
// first, then the scheduler.
func (s *Server) submit(spec JobSpec, tenant string) (*job, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
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
	s.appendIndexLocked(j)
	s.metrics.jobsQueued.Add(1)
	if spec.JobKind() == KindConcur {
		s.metrics.jobsConcur.Add(1)
	}
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
		if j.status().State == StateDrifted {
			s.metrics.jobsDrifted.Add(1)
		} else {
			s.metrics.jobsDone.Add(1)
		}
		s.schedDone(j)
	case j.isUserCancelled():
		s.metrics.jobsCancelled.Add(1)
		s.finalizeBestEffort(j, StateCancelled, cli.ExitFailure, fmt.Sprintf("cancelled: %v", err))
		s.schedDone(j)
	case s.baseCtx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// Drain: park with the journal intact; the next boot resumes it.
		s.metrics.jobsParked.Add(1)
		j.park()
		s.schedRequeue(j)
	default:
		s.metrics.jobsFailed.Add(1)
		s.finalizeBestEffort(j, StateFailed, cli.ExitFailure, err.Error())
		s.schedDone(j)
	}
}

// finalizeBestEffort finalizes a job with no stored results; a manifest
// write failure is unrecoverable bookkeeping (the job will re-run at next
// boot) and is folded into the job's error message.
func (s *Server) finalizeBestEffort(j *job, state string, exitCode int, msg string) {
	if err := j.finalize(state, exitCode, msg, "", ""); err != nil {
		j.mu.Lock()
		j.errMsg = msg + "; " + err.Error()
		j.mu.Unlock()
	}
}

// executeJob runs one job end to end: resume the journal, stream runs
// into it (and the SSE feed), run the kind's workflow — a detection
// campaign, or the full repair pipeline — render through the same code
// paths the CLIs print with, and deposit log + report in the result
// store. Completed detect jobs then pass the drift gate before
// finalizing done.
func (s *Server) executeJob(ctx context.Context, j *job) error {
	if j.spec.JobKind() == KindConcur {
		return s.executeConcurJob(ctx, j)
	}
	app, ok := apps.ByName(j.spec.App)
	if !ok {
		return fmt.Errorf("serve: unknown application %q", j.spec.App)
	}
	completed, journal, err := replog.ResumeJournal(j.journalPath(), app.Name, app.Lang)
	if err != nil {
		return err
	}
	j.noteSpliced(len(completed))
	s.metrics.runsSpliced.Add(int64(len(completed)))

	opts := j.spec.Options()
	opts.Completed = completed
	opts.OnRun = func(r inject.Run) error {
		if err := journal.Append(r); err != nil {
			return err
		}
		s.metrics.runsExecuted.Add(1)
		if r.Status != inject.RunOK {
			s.metrics.pointsQuarantined.Add(1)
		}
		j.noteRun(r)
		return nil
	}

	var logBuf bytes.Buffer
	var report string
	var exitCode int
	var fresh *detect.Classification
	if j.spec.JobKind() == KindRepair {
		// The repair workflow threads the same journal hooks through its
		// phase-1 campaign, so a repair job resumes exactly like a detect
		// job; the phase-1 campaign log is the job's log artifact.
		rep, rerr := repair.Run(ctx, repair.Config{App: j.spec.App, Options: opts})
		if rerr != nil {
			journal.Close()
			return rerr
		}
		if err := journal.Close(); err != nil {
			return err
		}
		if err := replog.Write(&logBuf, rep.Campaign); err != nil {
			return err
		}
		s.metrics.noteSnapshots(rep.Campaign)
		report = rep.Render()
		exitCode = rep.ExitCode()
	} else {
		res, rerr := harness.RunApp(ctx, app, opts)
		if rerr != nil {
			journal.Close()
			return rerr
		}
		if err := journal.Close(); err != nil {
			return err
		}
		if err := replog.Write(&logBuf, res.Result); err != nil {
			return err
		}
		s.metrics.noteSnapshots(res.Result)
		if report, exitCode, rerr = cli.CampaignReport(ctx, app, opts, res); rerr != nil {
			return rerr
		}
		fresh = res.Classification
	}
	logSHA, err := s.store.Put(logBuf.Bytes())
	if err != nil {
		return err
	}
	reportSHA, err := s.store.Put([]byte(report))
	if err != nil {
		return err
	}
	if fresh != nil {
		if drift := s.driftAgainstLast(j.spec, fresh); len(drift) > 0 {
			return j.finalize(StateDrifted, cli.ExitDrift, driftMessage(drift), logSHA, reportSHA)
		}
		s.noteLastDone(j.spec, logSHA, time.Now())
	}
	return j.finalize(StateDone, exitCode, "", logSHA, reportSHA)
}

// executeConcurJob runs one concur job in-process: resume the seeded
// journal, stream runs into it (and the SSE feed), run the schedule
// campaign, and store the replog plus the report the campaign rendered —
// the same bytes a local fadetect -concur run prints, which is what makes
// the stored report cmp-identical.
func (s *Server) executeConcurJob(ctx context.Context, j *job) error {
	target, ok := concur.ByName(j.spec.App)
	if !ok {
		return fmt.Errorf("serve: unknown concurrent target %q", j.spec.App)
	}
	// The campaign itself is not cancellable mid-schedule (schedules are
	// sub-second); honor a cancel/drain that landed before it started.
	if err := ctx.Err(); err != nil {
		return err
	}
	seed := concur.EffectiveSeed(j.spec.Seed)
	completed, journal, err := replog.ResumeJournalSeeded(j.journalPath(), target.Name, target.Lang, seed)
	if err != nil {
		return err
	}
	j.noteSpliced(len(completed))
	s.metrics.runsSpliced.Add(int64(len(completed)))

	res, rerr := concur.Campaign(&target, concur.Options{
		Workers:   j.spec.Workers,
		Schedules: j.spec.Schedules,
		Seed:      seed,
		Completed: completed,
		OnRun: func(r inject.Run) error {
			if err := journal.Append(r); err != nil {
				return err
			}
			s.metrics.runsExecuted.Add(1)
			j.noteRun(r)
			return nil
		},
	})
	if rerr != nil {
		journal.Close()
		return rerr
	}
	if err := journal.Close(); err != nil {
		return err
	}
	var logBuf bytes.Buffer
	if err := replog.Write(&logBuf, res.Inject); err != nil {
		return err
	}
	logSHA, err := s.store.Put(logBuf.Bytes())
	if err != nil {
		return err
	}
	reportSHA, err := s.store.Put([]byte(res.Report))
	if err != nil {
		return err
	}
	return j.finalize(StateDone, cli.ExitOK, "", logSHA, reportSHA)
}
