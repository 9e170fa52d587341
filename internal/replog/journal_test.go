package replog

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/inject"
)

func campaignRuns(t *testing.T) []inject.Run {
	t.Helper()
	app, ok := apps.ByName("HashedSet")
	if !ok {
		t.Fatal("HashedSet missing")
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Runs
}

func appendAll(t *testing.T, j *Journal, runs []inject.Run) {
	t.Helper()
	for _, r := range runs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	runs := campaignRuns(t)
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, runs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, j2, err := ResumeJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(runs) {
		t.Fatalf("recovered %d runs, want %d", len(got), len(runs))
	}
	for _, want := range runs {
		rec, ok := got[want.Key()]
		if !ok {
			t.Fatalf("point %d missing from recovery", want.InjectionPoint)
		}
		if rec.InjectionPoint != want.InjectionPoint || len(rec.Marks) != len(want.Marks) {
			t.Fatalf("point %d round-trip mismatch: %+v vs %+v", want.InjectionPoint, rec, want)
		}
	}
}

func TestJournalDropsTornTail(t *testing.T) {
	runs := campaignRuns(t)
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, runs[:3])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: append half a line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"injectionPoint":3,"inj`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, j2, err := ResumeJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d runs, want 3 (torn tail dropped)", len(got))
	}
	// Appending after recovery must leave a cleanly parseable journal.
	appendAll(t, j2, runs[3:4])
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, j3, err := ResumeJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(got2) != 4 {
		t.Fatalf("recovered %d runs after truncate+append, want 4", len(got2))
	}
}

func TestJournalRejectsWrongProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := ResumeJournal(path, "LinkedList", "java"); err == nil ||
		!strings.Contains(err.Error(), "written for program") {
		t.Fatalf("err = %v, want program-mismatch rejection", err)
	}
}

func TestJournalFirstOccurrenceWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "p", "")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []inject.Run{
		{InjectionPoint: 1, Err: "first"},
		{InjectionPoint: 1, Err: "second"},
	})
	j.Close()
	got, j2, err := ResumeJournal(path, "p", "")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got[inject.RunKey{Point: 1}].Err != "first" {
		t.Fatalf("duplicate point resolved to %q, want the first occurrence", got[inject.RunKey{Point: 1}].Err)
	}
}

func TestResumeMissingJournalStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	got, j, err := ResumeJournal(path, "p", "")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(got) != 0 {
		t.Fatalf("fresh journal recovered %d runs", len(got))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("resume must create the journal for subsequent appends: %v", err)
	}
}

func TestResumeRejectsNonJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	if err := os.WriteFile(path, []byte("{\"format\":\"something-else/9\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeJournal(path, "p", ""); err == nil {
		t.Fatal("foreign format must be rejected")
	}
}

// TestJournalConcurrentAppend: parallel campaign workers append through
// one journal, which encodes every line in a buffer it reuses under its
// mutex; every run must come back intact, none torn or interleaved.
func TestJournalConcurrentAppend(t *testing.T) {
	runs := campaignRuns(t)
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(runs); i += workers {
				if err := j.Append(runs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, j2, err := ResumeJournal(path, "HashedSet", "java")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(runs) {
		t.Fatalf("recovered %d runs, want %d", len(got), len(runs))
	}
	for _, want := range runs {
		if !reflect.DeepEqual(got[want.Key()], want) {
			t.Fatalf("run %s changed through a concurrent journal:\n got %+v\nwant %+v", want.Key(), got[want.Key()], want)
		}
	}
}
