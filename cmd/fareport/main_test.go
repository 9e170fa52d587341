package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
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

func hashedSetResult(t *testing.T) *inject.Result {
	t.Helper()
	app, ok := apps.ByName("HashedSet")
	if !ok {
		t.Fatal("HashedSet missing")
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func writeResult(t *testing.T, res *inject.Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hs.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := replog.Write(f, res); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportFromLog(t *testing.T) {
	path := writeResult(t, hashedSetResult(t))
	out, code, err := capture(t, func() (int, error) { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	for _, want := range []string{
		"HashedSet (java)",
		"HashedSet.Include",
		"pure failure non-atomic",
		"masking-phase input",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "QUARANTINED") {
		t.Error("clean log must not print a quarantine summary")
	}
}

func TestReportWithExceptionFree(t *testing.T) {
	path := writeResult(t, hashedSetResult(t))
	base, _, err := capture(t, func() (int, error) { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	hinted, _, err := capture(t, func() (int, error) {
		return run([]string{"-in", path, "-exception-free", "HashedSet.screen, HashedSet.spread"})
	})
	if err != nil {
		t.Fatal(err)
	}
	countPure := func(s string) int { return strings.Count(s, "pure failure non-atomic") }
	if countPure(hinted) >= countPure(base) {
		t.Fatalf("hints must reduce pure methods: %d vs %d", countPure(hinted), countPure(base))
	}
}

// TestReportQuarantinedLog: a log holding non-RunOK runs must print the
// same quarantine block fadetect prints and exit with code 2.
func TestReportQuarantinedLog(t *testing.T) {
	res := hashedSetResult(t)
	// Quarantine two recorded points the way a supervised campaign would.
	res.Runs[3].Status = inject.RunHung
	res.Runs[3].Retries = 2
	res.Runs[3].Err = "run exceeded RunTimeout 1s"
	res.Runs[3].Marks = nil
	res.Runs[5].Status = inject.RunUndetermined
	res.Runs[5].Err = "foreign panic: boom"
	path := writeResult(t, res)

	out, code, err := capture(t, func() (int, error) { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitQuarantined {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitQuarantined)
	}
	for _, want := range []string{
		"QUARANTINED (HashedSet): 2 injection point(s) excluded from classification",
		"hung",
		"undetermined",
		"run exceeded RunTimeout",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("quarantined report missing %q:\n%s", want, out)
		}
	}
}

func TestReportErrors(t *testing.T) {
	if code, err := run(nil); err == nil || code != cli.ExitFailure {
		t.Fatal("-in is required")
	}
	if code, err := run([]string{"-in", "/nonexistent.json"}); err == nil || code != cli.ExitFailure {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := run([]string{"-in", bad}); err == nil || code != cli.ExitFailure {
		t.Fatal("garbage log must error")
	}
}

// TestReportRendersUnknownSectionsVerbatim is the forward-compatibility
// pin: fareport renders every section a log carries — including kinds
// minted after this binary was built — verbatim, without interpreting the
// name.
func TestReportRendersUnknownSectionsVerbatim(t *testing.T) {
	res := hashedSetResult(t)
	res.Sections = append(res.Sections,
		inject.Section{Name: "concur", Text: "concurrent detection: 4 workers\nverdicts: fine\n"},
		inject.Section{Name: "hologram", Text: "a section kind from the future\nwith two lines\n"},
	)
	path := writeResult(t, res)
	out, code, err := capture(t, func() (int, error) { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	for _, want := range []string{
		"[concur section]\nconcurrent detection: 4 workers\nverdicts: fine\n",
		"[hologram section]\na section kind from the future\nwith two lines\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section block %q:\n%s", want, out)
		}
	}
}

// TestReportConcurLogEndToEnd: a log written by fadetect -concur replays
// its stored report section byte-for-byte through fareport.
func TestReportConcurLogEndToEnd(t *testing.T) {
	target, ok := concur.ByName("LinkedList")
	if !ok {
		t.Fatal("LinkedList concurrent target missing")
	}
	res, err := concur.Campaign(context.Background(), &target, concur.Options{Workers: 4, Schedules: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := writeResult(t, res.Inject)
	out, code, err := capture(t, func() (int, error) { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitOK)
	}
	if !strings.Contains(out, "[concur section]\n"+res.Report) {
		t.Errorf("fareport did not replay the stored concur report verbatim:\n%s", out)
	}
}
