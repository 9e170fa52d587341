package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"failatomic/internal/inject"
	"failatomic/internal/sched"
	"failatomic/internal/serve/store"
)

// Job lifecycle states. A job is durable from the moment it is admitted:
// its spec is on disk before the POST returns, so every state except
// StateDone/StateFailed/StateCancelled is recoverable — a crashed or
// drained server re-queues queued and running jobs at the next boot and
// resumes them from their journals.
const (
	// StateQueued: admitted, waiting for a worker (also the state a
	// parked job returns to during a drain).
	StateQueued = "queued"
	// StateRunning: a worker is executing the campaign.
	StateRunning = "running"
	// StateDone: campaign and report complete; log and report are in the
	// result store.
	StateDone = "done"
	// StateFailed: the campaign failed (bad app, budget blown, journal
	// error, ...).
	StateFailed = "failed"
	// StateCancelled: cancelled via DELETE before completion.
	StateCancelled = "cancelled"
	// StateDrifted: the campaign completed and its results are stored, but
	// the fresh classification diverged from the last stored done run of
	// the same spec — the server-side regression gate tripped. Terminal,
	// with log and report retrievable like a done job.
	StateDrifted = "drifted"
)

// Job kinds. The zero value means detect.
const (
	// KindDetect is a detection campaign (the default).
	KindDetect = "detect"
	// KindRepair runs the full detect → mask → verify repair workflow
	// (internal/repair) and stores the repair report; the phase-1
	// detection log is the job's log artifact.
	KindRepair = "repair"
	// KindConcur runs a concurrent schedule campaign (internal/concur):
	// the app names a concurrent target, Workers/Schedules/Seed select the
	// schedule plan, and the stored report is the concurrent-detection
	// section — byte-identical to the same local fadetect -concur run.
	KindConcur = "concur"
)

// JobSpec is the wire form of one campaign job: the app selection plus
// the inject.Options knobs a client may set. RunTimeout is JSON-encoded
// as nanoseconds (Go's time.Duration encoding).
type JobSpec struct {
	// App names the application under test (a Table 1 row).
	App string `json:"app"`
	// Kind selects the workflow: "" or KindDetect for a detection
	// campaign, KindRepair for the repair workflow, KindConcur for a
	// schedule campaign. Validated at admission.
	Kind string `json:"kind,omitempty"`
	// Repeats scales the injection space (inject.Options.Repeats).
	Repeats int `json:"repeats,omitempty"`
	// Parallelism fans the campaign out over worker goroutines. Results
	// are byte-identical at any value, so it is a performance knob and
	// stays out of the drift gate's spec identity.
	Parallelism int `json:"parallelism,omitempty"`
	// RunTimeout arms the per-run watchdog (nanoseconds).
	RunTimeout time.Duration `json:"runTimeout,omitempty"`
	// MaxRetries re-attempts hung/crashed runs before quarantine.
	MaxRetries int `json:"maxRetries,omitempty"`
	// MaxQuarantined fails the campaign past this many quarantined points.
	MaxQuarantined int `json:"maxQuarantined,omitempty"`
	// Perturb selects extra fault strategies in fadetect's -perturb
	// grammar ("nth=3,burst,oblivious"). Validated at admission. It is a
	// semantic knob: it extends the experiment plan, so it participates in
	// the drift gate's spec identity — a spec with a different Perturb is
	// a different baseline.
	Perturb string `json:"perturb,omitempty"`
	// Workers/Schedules/Seed parameterize a KindConcur job (zero values
	// take the concur package defaults). Rejected at admission on other
	// kinds — they select a schedule plan, which only concur jobs have.
	Workers   int   `json:"workers,omitempty"`
	Schedules int   `json:"schedules,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	// Priority is the scheduling class: "low", "normal" (or "") or
	// "high". Validated at admission. It is a scheduling knob, not a
	// semantic one — it does not participate in the drift gate's spec
	// identity (see drift.go).
	Priority string `json:"priority,omitempty"`
	// Crontab is the id of the recurring spec that fired this job, set by
	// the server, empty on direct submissions. It participates in the
	// drift gate's spec identity, which chains successive firings of one
	// crontab into a longitudinal baseline series.
	Crontab string `json:"crontab,omitempty"`
}

// JobKind normalizes the spec's kind: the zero value is a detect job.
func (sp JobSpec) JobKind() string {
	if sp.Kind == "" {
		return KindDetect
	}
	return sp.Kind
}

// Options converts the spec's campaign knobs to inject.Options — the one
// flags→options conversion: fadetect and farepair build a JobSpec from
// their flags and call it too. Journal hooks belong to whoever runs the
// job, not to the spec.
func (sp JobSpec) Options() (inject.Options, error) {
	perturbations, err := inject.ParsePerturbations(sp.Perturb)
	if err != nil {
		return inject.Options{}, err
	}
	return inject.Options{
		Repeats:        sp.Repeats,
		Parallelism:    sp.Parallelism,
		RunTimeout:     sp.RunTimeout,
		MaxRetries:     sp.MaxRetries,
		MaxQuarantined: sp.MaxQuarantined,
		Perturbations:  perturbations,
	}, nil
}

// JobStatus is the wire form of GET /v1/jobs/{id}.
type JobStatus struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// State is one of the State* constants.
	State string `json:"state"`
	// RunsDone counts completed runs so far: journaled-and-spliced plus
	// freshly executed.
	RunsDone int `json:"runsDone"`
	// Spliced counts the runs recovered from the journal at resume.
	Spliced int `json:"spliced,omitempty"`
	// Quarantined counts quarantined points observed so far.
	Quarantined int `json:"quarantined"`
	// ExitCode is the exit-code-equivalent of a local fadetect run
	// (0 ok, 1 failure, 2 quarantined); meaningful once the job is
	// terminal.
	ExitCode int `json:"exitCode"`
	// Error describes a failed or cancelled job.
	Error string `json:"error,omitempty"`
	// Log and Report are result-store addresses, set when State is done.
	Log    string `json:"log,omitempty"`
	Report string `json:"report,omitempty"`
	// Token is the quota-table tenant name the job was admitted under
	// ("" = the default tenant). Never the bearer credential itself.
	Token string `json:"token,omitempty"`
	// Seq is the job's global admission ordinal — the order of the job
	// index and the currency of its pagination cursor.
	Seq uint64 `json:"seq,omitempty"`
	// CompletedAt stamps terminal jobs (from done.json).
	CompletedAt time.Time `json:"completedAt,omitempty"`
}

// Terminal reports whether the state is final.
func (st JobStatus) Terminal() bool {
	switch st.State {
	case StateDone, StateFailed, StateCancelled, StateDrifted:
		return true
	}
	return false
}

// Event is one SSE message on GET /v1/jobs/{id}/events. Seq increases by
// one per event within a server process; a resumed job starts a fresh
// sequence on the new server.
type Event struct {
	Seq int `json:"seq"`
	// Type: "state" (queue/run transitions and parking), "resumed"
	// (journal splice, Runs = recovered count), "run" (one completed
	// run), or "end" (terminal, carries State/ExitCode/Error).
	Type  string `json:"type"`
	State string `json:"state,omitempty"`
	// Point and Status describe a "run" event.
	Point  int    `json:"point,omitempty"`
	Status string `json:"status,omitempty"`
	// Runs is the cumulative completed-run count.
	Runs     int    `json:"runs,omitempty"`
	ExitCode int    `json:"exitCode,omitempty"`
	Error    string `json:"error,omitempty"`
}

// EventEnd is the terminal event type.
const EventEnd = "end"

// job is the server-side state of one campaign job.
type job struct {
	id   string
	spec JobSpec
	dir  string
	// item is the immutable scheduling key assigned at admission (or
	// restored from spec.json at boot); item.Token is the tenant name.
	item sched.Item
	// enqueuedAt feeds the queue_wait_seconds_max gauge; in-memory only,
	// reset at boot for recovered jobs.
	enqueuedAt time.Time

	events *broadcaster

	mu            sync.Mutex
	state         string
	cancel        context.CancelFunc // set while running
	userCancelled bool
	runsDone      int
	spliced       int
	quarantined   int
	exitCode      int
	errMsg        string
	logSHA        string
	reportSHA     string
	completedAt   time.Time
}

func (j *job) journalPath() string { return filepath.Join(j.dir, "log.journal") }
func (j *job) specPath() string    { return filepath.Join(j.dir, "spec.json") }
func (j *job) donePath() string    { return filepath.Join(j.dir, "done.json") }

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		RunsDone:    j.runsDone,
		Spliced:     j.spliced,
		Quarantined: j.quarantined,
		ExitCode:    j.exitCode,
		Error:       j.errMsg,
		Log:         j.logSHA,
		Report:      j.reportSHA,
		Token:       j.item.Token,
		Seq:         j.item.Seq,
		CompletedAt: j.completedAt,
	}
}

// setRunning transitions the job to running under a fresh cancel func.
func (j *job) setRunning(cancel context.CancelFunc) {
	j.mu.Lock()
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()
	j.events.publish(Event{Type: "state", State: StateRunning})
}

// noteSpliced records the journal recovery at the start of a resumed run.
func (j *job) noteSpliced(n int) {
	j.mu.Lock()
	j.spliced = n
	// Floor rather than add: a job failing over in memory already counted
	// its shipped runs via noteRun; a job recovered from disk starts at 0.
	if j.runsDone < n {
		j.runsDone = n
	}
	j.mu.Unlock()
	if n > 0 {
		j.events.publish(Event{Type: "resumed", Runs: n})
	}
}

// noteRun records one freshly executed run. Under a parallel campaign it
// is called from worker goroutines concurrently.
func (j *job) noteRun(r inject.Run) {
	j.mu.Lock()
	j.runsDone++
	runs := j.runsDone
	if r.Status != inject.RunOK {
		j.quarantined++
	}
	j.mu.Unlock()
	j.events.publish(Event{Type: "run", Point: r.InjectionPoint, Status: r.Status.String(), Runs: runs})
}

// requestCancel marks the job user-cancelled and cancels its context if
// it is running. It reports whether there was anything left to cancel.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCancelled, StateDrifted:
		return false
	}
	j.userCancelled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

func (j *job) isUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancelled
}

// park returns a drained running job to the queued state without closing
// its journal trail: the next boot re-queues and resumes it.
func (j *job) park() {
	j.mu.Lock()
	j.state = StateQueued
	j.cancel = nil
	j.mu.Unlock()
	j.events.publish(Event{Type: "state", State: StateQueued})
}

// doneManifest is the terminal record written to done.json. Its presence
// is what marks a job non-resumable at boot, so it is written atomically
// (temp + rename) after the log and report are safely in the store.
type doneManifest struct {
	ID       string  `json:"id"`
	Spec     JobSpec `json:"spec"`
	State    string  `json:"state"`
	ExitCode int     `json:"exitCode"`
	Error    string  `json:"error,omitempty"`
	Log      string  `json:"log,omitempty"`
	Report   string  `json:"report,omitempty"`
	// CompletedAt orders terminal manifests of the same spec, so the boot
	// recovery can rebuild the drift gate's last-done index.
	CompletedAt time.Time `json:"completedAt,omitempty"`
}

// finalize transitions the job to a terminal state, persists done.json,
// publishes the terminal event and closes the event stream. The journal
// is removed once the manifest is durable — after this point a restart
// must not resume the job.
func (j *job) finalize(state string, exitCode int, errMsg, logSHA, reportSHA string) error {
	completedAt := time.Now().UTC()
	j.mu.Lock()
	j.state = state
	j.cancel = nil
	j.exitCode = exitCode
	j.errMsg = errMsg
	j.logSHA = logSHA
	j.reportSHA = reportSHA
	j.completedAt = completedAt
	j.mu.Unlock()

	err := writeFileAtomic(j.donePath(), doneManifest{
		ID:          j.id,
		Spec:        j.spec,
		State:       state,
		ExitCode:    exitCode,
		Error:       errMsg,
		Log:         logSHA,
		Report:      reportSHA,
		CompletedAt: completedAt,
	})
	if err == nil {
		os.Remove(j.journalPath())
	}
	j.events.publish(Event{Type: EventEnd, State: state, ExitCode: exitCode, Error: errMsg})
	j.events.close()
	return err
}

// writeFileAtomic marshals v and writes it with store.WriteFileAtomic, so
// a crash leaves either the old file or the new one, never a torn
// manifest.
func writeFileAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err == nil {
		err = store.WriteFileAtomic(path, append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}
