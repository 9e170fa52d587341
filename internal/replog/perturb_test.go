package replog

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/inject"
)

// perturbedRuns executes a small multi-strategy campaign so the journal
// tests exercise real strategy-coordinate keys (burst pairs, nth sweeps,
// deferred-cleanup ordinals) rather than hand-built runs.
func perturbedRuns(t testing.TB) []inject.Run {
	t.Helper()
	app, ok := apps.ByName("adaptorChain")
	if !ok {
		t.Fatal("adaptorChain missing")
	}
	perts, err := inject.ParsePerturbations("nth=2,burst=16,defer,oblivious")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{
		Perturbations: perts,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := map[string]bool{}
	for _, r := range res.Runs {
		strategies[r.Strategy] = true
	}
	for _, want := range []string{"", "nth", "burst", "defer", "oblivious"} {
		if !strategies[want] {
			t.Fatalf("campaign produced no %q runs", want)
		}
	}
	return res.Runs
}

func TestJournalStrategyKeyRoundTrip(t *testing.T) {
	runs := perturbedRuns(t)
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "adaptorChain", "cpp")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, runs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, j2, err := ResumeJournal(path, "adaptorChain", "cpp")
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
			t.Fatalf("%s missing from recovery", want.Key())
		}
		if rec.Strategy != want.Strategy || rec.InjectionPoint != want.InjectionPoint ||
			rec.Arg != want.Arg || len(rec.Marks) != len(want.Marks) {
			t.Fatalf("%s round-trip mismatch: %+v vs %+v", want.Key(), rec, want)
		}
	}
}

// TestLegacyJournalDecodesAsDefaultStrategy: journal lines written before
// the strategy coordinate existed carry no "strategy"/"arg" fields; they
// must decode as default-sweep keys so old journals resume unchanged.
func TestLegacyJournalDecodesAsDefaultStrategy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "p", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"injectionPoint":2,"err":"legacy"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, j2, err := ResumeJournal(path, "p", "")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rec, ok := got[inject.RunKey{Point: 2}]
	if !ok {
		t.Fatalf("legacy line not recovered under the default-strategy key: %v", got)
	}
	if rec.Strategy != "" || rec.Arg != 0 || rec.Err != "legacy" {
		t.Fatalf("legacy line decoded as %+v", rec)
	}
}

// TestJournalDropsTornMidBurstTail: a kill mid-append of a burst run must
// lose only that run; the intact strategy-run prefix resumes, and the
// journal stays appendable.
func TestJournalDropsTornMidBurstTail(t *testing.T) {
	runs := perturbedRuns(t)
	var bursts []inject.Run
	for _, r := range runs {
		if r.Strategy == "burst" {
			bursts = append(bursts, r)
		}
	}
	if len(bursts) < 3 {
		t.Fatalf("need at least 3 burst runs, have %d", len(bursts))
	}
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := CreateJournal(path, "adaptorChain", "cpp")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, bursts[:2])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"strategy":"burst","injectionPoint":9,"arg":1`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, j2, err := ResumeJournal(path, "adaptorChain", "cpp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d runs, want 2 (torn burst line dropped)", len(got))
	}
	for _, want := range bursts[:2] {
		if _, ok := got[want.Key()]; !ok {
			t.Fatalf("%s missing after torn-tail recovery", want.Key())
		}
	}
	appendAll(t, j2, bursts[2:3])
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, j3, err := ResumeJournal(path, "adaptorChain", "cpp")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(got2) != 3 {
		t.Fatalf("recovered %d runs after truncate+append, want 3", len(got2))
	}
}

// TestChunkOrdersStrategyKeysDeterministically: chunk bytes over a
// multi-strategy run set sort by RunKey (strategy, point, arg) with the
// default strategy first, so shipped chunks are byte-stable.
func TestChunkOrdersStrategyKeysDeterministically(t *testing.T) {
	runs := perturbedRuns(t)
	m := map[inject.RunKey]inject.Run{}
	for _, r := range runs {
		m[r.Key()] = r
	}
	a, err := EncodeChunkBytes(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeChunkBytes(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("chunk encoding of a multi-strategy run set is not deterministic")
	}
	got, err := DecodeChunkRuns(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("decoded %d runs, want %d", len(got), len(m))
	}
	for k := range m {
		if _, ok := got[k]; !ok {
			t.Fatalf("%s missing from decoded chunk", k)
		}
	}
}
