// Tests for the kind table as every host sees it: a worker runs each kind
// exactly like the in-process pool, boot recovery refuses specs admission
// would have refused, a parked concur job resumes byte-identically, and
// arbitrary spec bytes never reach a panic past validation.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"failatomic/internal/cli"
	"failatomic/internal/serve"
)

// jobArtifacts runs spec to completion on c and returns its stored log
// and report.
func jobArtifacts(t *testing.T, c interface {
	Submit(context.Context, serve.JobSpec) (string, error)
	Wait(context.Context, string) (serve.JobStatus, error)
	Log(context.Context, string) ([]byte, error)
	Report(context.Context, string) ([]byte, error)
}, spec serve.JobSpec) (st serve.JobStatus, log, report []byte) {
	t.Helper()
	ctx := context.Background()
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("%s job: %+v", spec.JobKind(), st)
	}
	if log, err = c.Log(ctx, id); err != nil {
		t.Fatal(err)
	}
	if report, err = c.Report(ctx, id); err != nil {
		t.Fatal(err)
	}
	return st, log, report
}

// TestEveryKindOnAWorker: for every job kind, the log and report a
// faworker uploads are byte-identical to those of the same job run by the
// in-process pool, and so is the exit code.
func TestEveryKindOnAWorker(t *testing.T) {
	_, local, _ := bootServer(t, t.TempDir(), 2, 16)
	_, remote, url, _ := bootConfigured(t, serve.Config{
		DataDir:         t.TempDir(),
		Workers:         1,
		QueueDepth:      16,
		CoordinatorOnly: true,
		WorkerPoll:      5 * time.Millisecond,
	})
	startWorker(t, url, "w1")

	specs := map[string]serve.JobSpec{
		serve.KindDetect: fastSpec(),
		serve.KindRepair: {App: "LinkedList", Kind: serve.KindRepair},
		serve.KindConcur: concurSpec(),
	}
	for _, kind := range []string{serve.KindDetect, serve.KindRepair, serve.KindConcur} {
		t.Run(kind, func(t *testing.T) {
			if kind == serve.KindRepair {
				if testing.Short() {
					t.Skip("compiles and runs child Go programs")
				}
				if _, err := exec.LookPath("go"); err != nil {
					t.Skip("go toolchain not available")
				}
			}
			spec := specs[kind]
			wantSt, wantLog, wantReport := jobArtifacts(t, local, spec)
			gotSt, gotLog, gotReport := jobArtifacts(t, remote, spec)
			if gotSt.ExitCode != wantSt.ExitCode {
				t.Errorf("worker exit code %d, in-process %d", gotSt.ExitCode, wantSt.ExitCode)
			}
			if string(gotReport) != string(wantReport) {
				t.Errorf("worker report differs from in-process:\n--- worker\n%s\n--- in-process\n%s", gotReport, wantReport)
			}
			if string(gotLog) != string(wantLog) {
				t.Error("worker log differs from in-process log")
			}
		})
	}
}

// TestRecoveryFailsInvalidSpec: a spec.json admission would have refused
// — an unknown kind and an unparseable perturbation — must not recover
// as a default detect job; it finalizes failed with the validation error.
func TestRecoveryFailsInvalidSpec(t *testing.T) {
	dataDir := t.TempDir()
	jobDir := filepath.Join(dataDir, "jobs", "jbogus")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"id":"jbogus","spec":{"app":"LinkedList","kind":"bogus","perturb":"warp"},"sched":{"id":"jbogus","priority":1,"seq":1,"ord":1,"shares":1}}`
	if err := os.WriteFile(filepath.Join(jobDir, "spec.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, _ := bootServer(t, dataDir, 1, 16)
	st, err := c.Wait(context.Background(), "jbogus")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateFailed || st.ExitCode != cli.ExitFailure {
		t.Fatalf("invalid recovered spec = %s/%d, want failed/%d", st.State, st.ExitCode, cli.ExitFailure)
	}
	if !strings.Contains(st.Error, "unknown job kind") {
		t.Errorf("error %q does not name the validation failure", st.Error)
	}
	if st.Log != "" || st.Report != "" {
		t.Errorf("an invalid spec must store nothing: log=%q report=%q", st.Log, st.Report)
	}
}

// TestConcurJobParksAndResumes: a drain parks a running concur job
// between schedules with its journal intact; the next boot splices the
// journaled schedules and stores a log and report byte-identical to an
// uninterrupted run.
func TestConcurJobParksAndResumes(t *testing.T) {
	spec := serve.JobSpec{App: "LinkedList", Kind: serve.KindConcur, Workers: 4, Schedules: 4096, Seed: 1}
	dataDir := t.TempDir()
	_, c, shutdown := bootServer(t, dataDir, 1, 16)
	ctx := context.Background()

	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	errEnough := errors.New("seen enough")
	_, err = c.Follow(ctx, id, func(e serve.Event) error {
		if e.Type == "run" && e.Runs >= 5 {
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("follow: %v (the job finished before it could be interrupted)", err)
	}
	shutdown()
	jobDir := filepath.Join(dataDir, "jobs", id)
	if _, err := os.Stat(filepath.Join(jobDir, "log.journal")); err != nil {
		t.Fatalf("parked concur job lost its journal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(jobDir, "done.json")); !os.IsNotExist(err) {
		t.Fatalf("parked concur job must not be terminal (err=%v)", err)
	}

	_, c2, _ := bootServer(t, dataDir, 1, 16)
	st, err := c2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Spliced == 0 {
		t.Fatalf("resumed concur job: %+v (want done with spliced runs)", st)
	}
	wantLog, wantReport := localConcurReference(t, spec)
	gotLog, err := c2.Log(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	gotReport, err := c2.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != wantReport {
		t.Error("resumed concur report differs from an uninterrupted run")
	}
	if string(gotLog) != string(wantLog) {
		t.Error("resumed concur log differs from an uninterrupted run")
	}
}

// FuzzJobSpec feeds arbitrary bytes through the job-spec decoder and the
// kind table's validation: a spec Validate accepts must convert through
// Options and name its journal without panicking or failing.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"app":"HashedSet"}`,
		`{"app":"LinkedList","kind":"repair","repeats":2}`,
		`{"app":"LinkedList","kind":"concur","workers":4,"schedules":64,"seed":7}`,
		`{"app":"RBMap","perturb":"nth=3,burst,oblivious","snapshot":"capture","priority":"high"}`,
		`{"app":"LinkedList","kind":"bogus","perturb":"warp"}`,
		`{"app":"LinkedList","kind":"concur","workers":1}`,
		`{"app":"","kind":"detect"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec serve.JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		if _, err := spec.Options(); err != nil {
			t.Fatalf("accepted spec %+v fails Options: %v", spec, err)
		}
		if program, _, _ := spec.JournalIdentity(); program == "" {
			t.Fatalf("accepted spec %+v has no journal identity", spec)
		}
	})
}
