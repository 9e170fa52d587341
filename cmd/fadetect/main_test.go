package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
)

func capture(t *testing.T, f func() (int, error)) (string, int, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	code, runErr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, code, runErr
}

func runArgs(args ...string) func() (int, error) {
	return func() (int, error) { return run(context.Background(), args) }
}

func TestSingleAppReport(t *testing.T) {
	out, code, err := capture(t, runArgs("-app", "HashedSet"))
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	for _, want := range []string{
		"HashedSet (java)",
		"injections",
		"pure failure non-atomic",
		"verifying masking phase",
		"all methods failure atomic in the corrected program",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSingleAppWithLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "hs.json")
	_, _, err := capture(t, runArgs("-app", "HashedSet", "-log", logPath))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"format":"failatomic-log/1"`) {
		t.Fatalf("log header missing:\n%.200s", data)
	}
	if _, err := os.Stat(logPath + ".journal"); !os.IsNotExist(err) {
		t.Fatalf("journal must be removed after a successful campaign (stat err: %v)", err)
	}
}

// TestObliviousLogStacksNameTheCrashSite: foreign panics that unwind
// through woven wrappers are recorded from the crash site down to the
// workload — neither the wrappers' re-panics nor the campaign driver's
// frames, whose line numbers move with every engine edit, reach the log.
func TestObliviousLogStacksNameTheCrashSite(t *testing.T) {
	for _, app := range []string{"LinkedList", "xml2xml1"} {
		logPath := filepath.Join(t.TempDir(), app+".json")
		if _, _, err := capture(t, runArgs("-app", app, "-perturb", "oblivious", "-log", logPath)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"stack":"`) {
			t.Fatalf("%s: oblivious log records no foreign-panic stack", app)
		}
		for _, engine := range []string{"session.go:", "inject.go:"} {
			if i := strings.Index(string(data), engine); i >= 0 {
				t.Fatalf("%s: log names an engine line %q: ...%s...", app, engine, data[max(0, i-200):i+20])
			}
		}
	}
}

func TestGroupEvaluation(t *testing.T) {
	out, _, err := capture(t, runArgs("-lang", "cpp", "-repair=false"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1",
		"adaptorChain",
		"xml2Cviasc2",
		"Figure 2(a)",
		"Figure 2(b)",
		"Figure 4 (cpp)",
		"mean pure non-atomic",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("evaluation output missing %q", want)
		}
	}
	if strings.Contains(out, "Figure 3") {
		t.Error("-lang cpp must not print the java figures")
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := run(context.Background(), []string{"-app", "NoSuchApp"}); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := run(context.Background(), []string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestUnknownLangRejected(t *testing.T) {
	code, err := run(context.Background(), []string{"-lang", "xyz"})
	if code != cli.ExitFailure || err == nil {
		t.Fatalf("-lang xyz = exit %d, err %v; want exit %d and an error", code, err, cli.ExitFailure)
	}
	for _, valid := range []string{`"cpp"`, `"java"`} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error %q does not name %s", err, valid)
		}
	}
}

// TestNegativeCampaignValuesRejected: a negative -repeat, -parallel,
// -retries, -max-quarantined or -run-timeout fails the run with an error
// naming the field instead of printing a report.
func TestNegativeCampaignValuesRejected(t *testing.T) {
	for _, c := range []struct{ flag, value, field string }{
		{"-repeat", "-3", "repeats"},
		{"-parallel", "-2", "parallelism"},
		{"-retries", "-1", "maxRetries"},
		{"-max-quarantined", "-1", "maxQuarantined"},
		{"-run-timeout", "-1s", "runTimeout"},
	} {
		for _, args := range [][]string{{"-app", "LinkedList", c.flag, c.value}, {c.flag, c.value}} {
			out, code, err := capture(t, runArgs(args...))
			if code != cli.ExitFailure || err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%v = exit %d, err %v; want exit %d and an error naming %s", args, code, err, cli.ExitFailure, c.field)
			}
			if out != "" {
				t.Errorf("%v printed a report:\n%s", args, out)
			}
		}
	}
}

func TestResumeRequiresLog(t *testing.T) {
	if _, err := run(context.Background(), []string{"-app", "HashedSet", "-resume"}); err == nil {
		t.Fatal("-resume without -log must error")
	}
}

func TestLogRequiresApp(t *testing.T) {
	if _, err := run(context.Background(), []string{"-log", "x.json"}); err == nil {
		t.Fatal("-log without -app must error")
	}
}

// TestParallelOutputIsByteIdentical is the CLI-level determinism
// guarantee: -parallel N must produce exactly the bytes of the sequential
// evaluation — same Table 1, same figures, same ordering.
func TestParallelOutputIsByteIdentical(t *testing.T) {
	seq, _, err := capture(t, runArgs("-lang", "cpp", "-repair=false"))
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := capture(t, runArgs("-lang", "cpp", "-repair=false", "-parallel", "4"))
	if err != nil {
		t.Fatal(err)
	}
	if par != seq {
		t.Fatalf("parallel output differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

func TestParallelSingleApp(t *testing.T) {
	out, _, err := capture(t, runArgs("-app", "HashedSet", "-parallel", "0")) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "all methods failure atomic in the corrected program") {
		t.Fatalf("parallel single-app run incomplete:\n%s", out)
	}
}

// TestCancelledCampaignKeepsJournal drives the interrupt path in-process:
// a pre-cancelled context must abort the campaign with a nonzero exit,
// keep the journal for -resume, and mention the resume hint.
func TestCancelledCampaignKeepsJournal(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "hs.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, err := run(ctx, []string{"-app", "HashedSet", "-log", logPath})
	if err == nil {
		t.Fatal("cancelled campaign must error")
	}
	if code != cli.ExitFailure {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitFailure)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("interrupt error must hint at -resume: %v", err)
	}
	if _, serr := os.Stat(logPath + ".journal"); serr != nil {
		t.Fatalf("journal must survive an interrupted campaign: %v", serr)
	}
	if _, serr := os.Stat(logPath); serr == nil {
		t.Fatal("no final log must be written for an interrupted campaign")
	}
}

// TestServerModeByteIdentity is the -server acceptance criterion: running
// the campaign on a faserve instance must print exactly the bytes of the
// same local invocation — report and final log alike. Both runs use a
// relative -log path from their own working directory so even the
// "injection log written to" line matches.
func TestServerModeByteIdentity(t *testing.T) {
	localDir, remoteDir := t.TempDir(), t.TempDir()

	t.Chdir(localDir)
	localOut, localCode, err := capture(t, runArgs("-app", "HashedSet", "-log", "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	localLog, err := os.ReadFile("out.json")
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(dctx)
		hts.Close()
	})

	t.Chdir(remoteDir)
	remoteOut, remoteCode, err := capture(t, runArgs("-app", "HashedSet", "-log", "out.json", "-server", hts.URL))
	if err != nil {
		t.Fatal(err)
	}
	remoteLog, err := os.ReadFile("out.json")
	if err != nil {
		t.Fatal(err)
	}

	if remoteCode != localCode {
		t.Errorf("exit code %d, want %d", remoteCode, localCode)
	}
	if remoteOut != localOut {
		t.Errorf("-server output differs from local run:\n--- server ---\n%s\n--- local ---\n%s", remoteOut, localOut)
	}
	if !bytes.Equal(remoteLog, localLog) {
		t.Error("-server log differs from local log")
	}
}

func TestServerFlagValidation(t *testing.T) {
	if _, err := run(context.Background(), []string{"-server", "http://x"}); err == nil {
		t.Fatal("-server without -app must error")
	}
	if _, err := run(context.Background(), []string{"-server", "http://x", "-app", "HashedSet", "-log", "x.json", "-resume"}); err == nil {
		t.Fatal("-server with -resume must error")
	}
}

// TestResumeProducesByteIdenticalLog is the acceptance criterion for
// crash-safe resume: a campaign resumed from a partial journal must write
// a final log byte-identical to an uninterrupted campaign's.
func TestResumeProducesByteIdenticalLog(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	if _, _, err := capture(t, runArgs("-app", "HashedSet", "-log", refPath)); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a campaign killed partway: journal the clean run and the
	// first half of the point runs, as an interrupted fadetect would have.
	app, ok := apps.ByName("HashedSet")
	if !ok {
		t.Fatal("HashedSet missing")
	}
	full, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.json")
	j, err := replog.CreateJournal(outPath+".journal", app.Name, app.Lang)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range full.Runs[:len(full.Runs)/2] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	out, code, err := capture(t, runArgs("-app", "HashedSet", "-log", outPath, "-resume"))
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	if !strings.Contains(out, "resuming:") {
		t.Fatalf("resume must report recovered runs:\n%s", out)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("resumed log differs from uninterrupted log:\n--- resumed ---\n%.600s\n--- reference ---\n%.600s", got, ref)
	}
	if _, serr := os.Stat(outPath + ".journal"); !os.IsNotExist(serr) {
		t.Fatalf("journal must be removed after a successful resume (stat err: %v)", serr)
	}
}

// ---- Concurrent schedule campaigns (-concur) ----

func TestConcurFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-concur", "workers=4"},                                            // no -app
		{"-seed", "3", "-app", "LinkedList"},                                // -seed without -concur
		{"-app", "LinkedList", "-concur", "workers=4", "-perturb", "nth=2"}, // perturb on concur
		{"-app", "LinkedList", "-concur", "workers=4", "-repeat", "2"},      // repeats on concur
		{"-app", "LinkedList", "-concur", "workers=1"},                      // out of bounds
		{"-app", "LinkedList", "-concur", "warp=1"},                         // bad key
		{"-app", "NoSuchTarget", "-concur", "workers=4"},                    // unknown target
	}
	for _, args := range cases {
		if _, err := run(context.Background(), args); err == nil {
			t.Errorf("args %v accepted, want rejection", args)
		}
	}
}

func TestConcurReport(t *testing.T) {
	out, code, err := capture(t, runArgs("-app", "LinkedList", "-concur", "workers=4,sched=16"))
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	for _, want := range []string{
		"concurrent detection: 4 workers, 16 schedules, seed 1",
		"clean schedule -> atomic",
		"verdicts:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestConcurResumeByteIdenticalLog: a concur campaign resumed from a
// partial seeded journal writes a log byte-identical to an uninterrupted
// campaign's and prints the same report.
func TestConcurResumeByteIdenticalLog(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refOut, _, err := capture(t, runArgs("-app", "LinkedList", "-concur", "workers=4,sched=16", "-log", refPath))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a campaign killed partway: journal the clean run and the
	// first half of the schedules, as an interrupted fadetect would have.
	target, ok := concur.ByName("LinkedList")
	if !ok {
		t.Fatal("LinkedList concurrent target missing")
	}
	var runs []inject.Run
	if _, err := concur.Campaign(context.Background(), &target, concur.Options{
		Workers: 4, Schedules: 16, Seed: 1,
		Campaign: inject.Options{OnRun: func(r inject.Run) error { runs = append(runs, r); return nil }},
	}); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.json")
	j, err := replog.CreateJournalSeeded(outPath+".journal", target.Name, target.Lang, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs[:len(runs)/2] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	out, code, err := capture(t, runArgs("-app", "LinkedList", "-concur", "workers=4,sched=16", "-log", outPath, "-resume"))
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	if !strings.Contains(out, "resuming:") {
		t.Fatalf("resume must report recovered runs:\n%s", out)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("resumed log differs from uninterrupted log:\n--- resumed ---\n%.600s\n--- reference ---\n%.600s", got, ref)
	}
	// The report (everything from the campaign banner on) must match too;
	// the preceding lines name different file paths by construction.
	marker := "concurrent detection:"
	if i, k := strings.Index(out, marker), strings.Index(refOut, marker); i < 0 || k < 0 || out[i:] != refOut[k:] {
		t.Errorf("resumed report differs from uninterrupted report:\n--- resumed ---\n%s\n--- reference ---\n%s", out, refOut)
	}
	if _, serr := os.Stat(outPath + ".journal"); !os.IsNotExist(serr) {
		t.Fatalf("journal must be removed after a successful resume (stat err: %v)", serr)
	}
}

// TestConcurResumeRejectsSeedMismatch: a journal recorded under one seed
// must not splice into a campaign running another.
func TestConcurResumeRejectsSeedMismatch(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "out.json")
	j, err := replog.CreateJournalSeeded(logPath+".journal", "LinkedList", "java", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = run(context.Background(), []string{
		"-app", "LinkedList", "-concur", "workers=4,sched=16", "-seed", "6", "-log", logPath, "-resume"})
	if err == nil || !strings.Contains(err.Error(), "seed 5") {
		t.Fatalf("seed-mismatched resume: err = %v, want seed-5 rejection", err)
	}
}

// TestConcurServerModeByteIdentity: a -concur campaign submitted to a
// faserve instance prints exactly the bytes of the same local invocation,
// report and log alike.
func TestConcurServerModeByteIdentity(t *testing.T) {
	localDir, remoteDir := t.TempDir(), t.TempDir()

	t.Chdir(localDir)
	localOut, localCode, err := capture(t, runArgs("-app", "LinkedList", "-concur", "workers=4,sched=8", "-log", "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	localLog, err := os.ReadFile("out.json")
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(dctx)
		hts.Close()
	})

	t.Chdir(remoteDir)
	remoteOut, remoteCode, err := capture(t, runArgs("-app", "LinkedList", "-concur", "workers=4,sched=8", "-log", "out.json", "-server", hts.URL))
	if err != nil {
		t.Fatal(err)
	}
	remoteLog, err := os.ReadFile("out.json")
	if err != nil {
		t.Fatal(err)
	}

	if remoteCode != localCode {
		t.Errorf("exit code %d, want %d", remoteCode, localCode)
	}
	if remoteOut != localOut {
		t.Errorf("-server output differs from local run:\n--- server ---\n%s\n--- local ---\n%s", remoteOut, localOut)
	}
	if !bytes.Equal(remoteLog, localLog) {
		t.Error("-server log differs from local log")
	}
}

func TestListFlagValidation(t *testing.T) {
	if _, _, err := capture(t, runArgs("-list")); err == nil || !strings.Contains(err.Error(), "-server") {
		t.Errorf("-list without -server = %v", err)
	}
	if _, _, err := capture(t, runArgs("-priority", "high", "-app", "HashedSet")); err == nil || !strings.Contains(err.Error(), "-server") {
		t.Errorf("-priority without -server = %v", err)
	}
}

// TestRemoteList pages a live server's job index through the CLI: one
// line per job, filterable, and the priority submitted with the job is
// what the index reports.
func TestRemoteList(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(dctx)
		hts.Close()
	})

	// Run one campaign through the CLI with an explicit priority.
	if _, code, err := capture(t, runArgs("-app", "HashedSet", "-server", hts.URL, "-priority", "high")); err != nil || code != cli.ExitOK {
		t.Fatalf("remote campaign: code %d, %v", code, err)
	}

	out, code, err := capture(t, runArgs("-server", hts.URL, "-list"))
	if err != nil || code != cli.ExitOK {
		t.Fatalf("-list: code %d, %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("-list printed %d lines, want 1:\n%s", len(lines), out)
	}
	for _, want := range []string{"done", "detect", "HashedSet", "default", "high"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("-list line missing %q: %s", want, lines[0])
		}
	}

	// Filters thread through: nothing is queued, everything is done.
	if out, _, err := capture(t, runArgs("-server", hts.URL, "-list", "-list-state", "queued")); err != nil || strings.TrimSpace(out) != "" {
		t.Errorf("-list-state queued = %q, %v (want empty)", out, err)
	}
	if out, _, err := capture(t, runArgs("-server", hts.URL, "-list", "-list-state", "done", "-list-limit", "1")); err != nil || strings.TrimSpace(out) == "" {
		t.Errorf("-list-state done = %q, %v (want the job)", out, err)
	}
}

// TestRBMapLogGolden pins the diff bytes of a campaign, not only its
// classification: a fresh RBMap Repeats=2 campaign's log, the diff paths
// of its 641 runs with a non-atomic mark included, must equal the
// committed golden byte for byte.
func TestRBMapLogGolden(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "rbmap.json")
	if _, _, err := capture(t, runArgs("-app", "RBMap", "-repeat", "2", "-log", logPath)); err != nil {
		t.Fatal(err)
	}
	compareFiles(t, logPath, "../../testdata/golden/rbmap.log.json")
}

// TestEvaluationOutputGolden: the default evaluation (Table 1, Figures
// 2–4 and the repair experiment) prints exactly the committed
// evaluation_output.txt.
func TestEvaluationOutputGolden(t *testing.T) {
	out, code, err := capture(t, runArgs())
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	got := filepath.Join(t.TempDir(), "evaluation.txt")
	if err := os.WriteFile(got, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	compareFiles(t, got, "../../evaluation_output.txt")
}

// compareFiles fails t unless the files at got and want are byte-equal,
// naming the first differing line.
func compareFiles(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g, w) {
		return
	}
	gl, wl := strings.Split(string(g), "\n"), strings.Split(string(w), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs from %s at line %d:\n got %.300s\nwant %.300s", got, want, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs from %s: %d lines vs %d", got, want, len(gl), len(wl))
}

// TestConcurrentCampaignsMatchGoldens: campaigns share the process's idle
// workers, so campaigns that run back to back on two goroutines while a
// third runs the whole evaluation at -parallel 4 (RunAllWithOptions with
// Parallelism 4) must still reproduce every committed golden byte for
// byte: the RBMap Repeats=2 log, the LinkedList schedule campaign's
// report and log, and evaluation_output.txt.
func TestConcurrentCampaignsMatchGoldens(t *testing.T) {
	golden := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rbmapLog := golden("../../testdata/golden/rbmap.log.json")
	concurReport := golden("../../testdata/golden/linkedlist-concur.txt")
	concurLog := golden("../../testdata/golden/linkedlist-concur.log.json")
	specs := []struct {
		spec       serve.JobSpec
		log, rport string // rport "" skips the report
	}{
		{serve.JobSpec{App: "RBMap", Repeats: 2}, rbmapLog, ""},
		{serve.JobSpec{App: "LinkedList", Kind: serve.KindConcur, Workers: 4, Schedules: 64}, concurLog, concurReport},
	}
	done := make(chan struct{})
	for i := range 2 {
		go func() {
			defer func() { done <- struct{}{} }()
			for round := range 2 {
				// The two goroutines run the specs in opposite orders.
				for j := range specs {
					sp := specs[(i+j)%len(specs)]
					out, err := sp.spec.Run(context.Background(), nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					log, err := out.Log()
					if err != nil {
						t.Error(err)
						return
					}
					if string(log) != sp.log {
						t.Errorf("goroutine %d round %d: %s log differs from its golden", i, round, sp.spec.App)
					}
					if sp.rport != "" && out.Report != sp.rport {
						t.Errorf("goroutine %d round %d: %s report differs from its golden:\n%s", i, round, sp.spec.App, out.Report)
					}
				}
			}
		}()
	}
	out, code, err := capture(t, runArgs("-parallel", "4"))
	<-done
	<-done
	if err != nil || code != cli.ExitOK {
		t.Fatalf("evaluation: code %d, %v", code, err)
	}
	if want := golden("../../evaluation_output.txt"); out != want {
		got := filepath.Join(t.TempDir(), "evaluation.txt")
		if err := os.WriteFile(got, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		compareFiles(t, got, "../../evaluation_output.txt")
	}
}
