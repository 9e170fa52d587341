package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleSrc = `package sample

import "failatomic/internal/fault"

type Counter struct {
	N int
}

func NewCounter() *Counter {
	return &Counter{}
}

func (c *Counter) Add(v int) {
	c.N += v
	c.check()
}

func (c *Counter) check() {
	if c.N < 0 {
		fault.Throw(fault.IllegalState, "Counter.check", "negative")
	}
}

func (c *Counter) Value() int {
	return c.N
}
`

func sampleDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "counter.go"), []byte(sampleSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// capture redirects stdout around f.
func capture(t *testing.T, f func() error) (string, error) {
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
	runErr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

func TestWeaveAndStripInPlace(t *testing.T) {
	dir := sampleDir(t)
	out, err := capture(t, func() error { return run([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 file(s) woven") {
		t.Fatalf("output: %s", out)
	}
	woven, err := os.ReadFile(filepath.Join(dir, "counter.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(woven), `defer failatomic.Enter(c, "Counter.Add")()`) {
		t.Fatalf("weave missing:\n%s", woven)
	}

	out, err = capture(t, func() error { return run([]string{"-dir", dir, "-strip"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 file(s) stripped") {
		t.Fatalf("output: %s", out)
	}
	stripped, _ := os.ReadFile(filepath.Join(dir, "counter.go"))
	if strings.Contains(string(stripped), "failatomic.Enter") {
		t.Fatal("strip incomplete")
	}
}

func TestDryRunLeavesFilesAlone(t *testing.T) {
	dir := sampleDir(t)
	before, _ := os.ReadFile(filepath.Join(dir, "counter.go"))
	out, err := capture(t, func() error { return run([]string{"-dir", dir, "-dry-run"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "would rewrite") {
		t.Fatalf("output: %s", out)
	}
	after, _ := os.ReadFile(filepath.Join(dir, "counter.go"))
	if string(before) != string(after) {
		t.Fatal("dry run modified the file")
	}
}

func TestAnalyzeOutput(t *testing.T) {
	dir := sampleDir(t)
	out, err := capture(t, func() error { return run([]string{"-dir", dir, "-analyze"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package sample", "Counter.Add", "throws=[IllegalState]", "Counter.New"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryGeneration(t *testing.T) {
	dir := sampleDir(t)
	regPath := filepath.Join(dir, "registry_gen.go.txt")
	out, err := capture(t, func() error {
		return run([]string{"-dir", dir, "-registry", regPath, "-registry-func", "RegisterSample"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "registry written") {
		t.Fatalf("output: %s", out)
	}
	gen, err := os.ReadFile(regPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gen), `r.Method("Counter", "Add", fault.IllegalState)`) {
		t.Fatalf("generated registry:\n%s", gen)
	}
}

func TestSuggestExceptionFree(t *testing.T) {
	dir := sampleDir(t)
	out, err := capture(t, func() error {
		return run([]string{"-dir", dir, "-suggest-exception-free"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Counter.Value") {
		t.Fatalf("Value should be provably exception-free:\n%s", out)
	}
	if strings.Contains(out, "  Counter.Add\n") {
		t.Fatal("Add throws transitively; must not be suggested")
	}
	if !strings.Contains(out, "  Counter.Add: calls unsafe Counter.check\n") {
		t.Fatalf("Add's disqualification reason missing:\n%s", out)
	}
}

func TestMissingDir(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("-dir is required")
	}
	if err := run([]string{"-dir", "/nonexistent-path-xyz"}); err == nil {
		t.Fatal("bad dir must error")
	}
}

func TestCheckMode(t *testing.T) {
	dir := sampleDir(t)
	// Clean source: check must fail listing the unwoven methods.
	out, err := capture(t, func() error { return run([]string{"-dir", dir, "-check"}) })
	if err == nil {
		t.Fatal("check of unwoven package must fail")
	}
	if !strings.Contains(out, "unwoven: Counter.Add") {
		t.Fatalf("check output: %s", out)
	}
	// Weave, then check must pass.
	if _, err := capture(t, func() error { return run([]string{"-dir", dir}) }); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error { return run([]string{"-dir", dir, "-check"}) })
	if err != nil {
		t.Fatalf("check of woven package failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "fully woven") {
		t.Fatalf("check output: %s", out)
	}
}

// TestBundledSubstratesAreFullyWoven gates the repository's own
// instrumentation: every evaluation substrate must carry prologues on all
// its methods.
func TestBundledSubstratesAreFullyWoven(t *testing.T) {
	for _, dir := range []string{
		"../../internal/collections",
		"../../internal/regexplite",
		"../../internal/xmlite",
		"../../internal/selfstar",
	} {
		out, err := capture(t, func() error { return run([]string{"-dir", dir, "-check"}) })
		if err != nil {
			t.Errorf("%s: %v\n%s", dir, err, out)
		}
	}
}

// TestLinkedListGolden runs CI's faweave smoke in-process: the repair
// pipeline's list fails -check, weaves clean, and its -analyze plus
// -suggest-exception-free output matches the committed golden.
func TestLinkedListGolden(t *testing.T) {
	dir := t.TempDir()
	src := "../../internal/repair/testdata/linkedlist"
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := capture(t, func() error { return run([]string{"-dir", dir, "-check"}) }); err == nil {
		t.Fatal("check of the unwoven list must fail")
	}
	if _, err := capture(t, func() error { return run([]string{"-dir", dir}) }); err != nil {
		t.Fatal(err)
	}
	var got string
	for _, mode := range []string{"-analyze", "-suggest-exception-free"} {
		out, err := capture(t, func() error { return run([]string{"-dir", dir, mode}) })
		if err != nil {
			t.Fatal(err)
		}
		got += out
	}
	want, err := os.ReadFile("../../testdata/golden/faweave-linkedlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/golden/faweave-linkedlist.txt:\n%s", got)
	}
}
