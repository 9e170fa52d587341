package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"

	"failatomic/internal/cli"
)

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

func TestFigure5Output(t *testing.T) {
	out, err := capture(t, func() error {
		_, err := run(context.Background(), []string{"-runs", "3", "-calls", "200"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 5", "object size", "64B", "64KiB", "100%", "baseline per-call time"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestUndoLogComparison(t *testing.T) {
	out, err := capture(t, func() error {
		_, err := run(context.Background(), []string{"-runs", "3", "-calls", "200", "-strategy", "undolog-compare"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Ablation: undolog checkpointing") {
		t.Fatalf("ablation section missing:\n%s", out)
	}
	if strings.Count(out, "Figure 5") != 2 {
		t.Fatal("both sweeps must print")
	}
}

func TestBadArgs(t *testing.T) {
	if _, err := run(context.Background(), []string{"-runs", "0"}); err == nil {
		t.Fatal("zero runs must error")
	}
	for _, flag := range []string{"-nope", "-parallel", "-run-timeout", "-retries"} {
		if _, err := run(context.Background(), []string{flag, "1"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s must fail as an unknown flag, got %v", flag, err)
		}
	}
}

// TestStrategyFlagValidation: an unknown strategy names the valid ones
// instead of silently running the deep-copy sweep, and the undo-log
// ablation only combines with the Figure 5 sweep it extends.
func TestStrategyFlagValidation(t *testing.T) {
	code, err := run(context.Background(), []string{"-runs", "3", "-calls", "200", "-strategy", "undolog"})
	if code != cli.ExitFailure || err == nil {
		t.Fatalf("-strategy undolog = exit %d, err %v; want exit %d and an error", code, err, cli.ExitFailure)
	}
	for _, valid := range []string{`"deepcopy"`, `"undolog-compare"`} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error %q does not name %s", err, valid)
		}
	}
	for _, args := range [][]string{
		{"-strategy", "undolog-compare", "-json", "/nonexistent/fabench.json"},
		{"-strategy", "undolog-compare", "-concur", "LinkedList"},
	} {
		if code, err := run(context.Background(), args); code != cli.ExitFailure || err == nil {
			t.Errorf("args %v = exit %d, err %v; want rejection", args, code, err)
		}
	}
}

func TestConcurFlagValidation(t *testing.T) {
	if _, err := run(context.Background(), []string{"-seed", "3"}); err == nil {
		t.Fatal("-seed without -concur must error")
	}
	if _, err := run(context.Background(), []string{"-concur", "LinkedList", "-perturb", "nth=2"}); err == nil {
		t.Fatal("-perturb with -concur must error")
	}
	if _, err := run(context.Background(), []string{"-concur", "NoSuchTarget"}); err == nil {
		t.Fatal("unknown concur target must error")
	}
}

// TestDiffAgainstFlagValidation: the regression gate only applies to the
// snapshot suite artifact, and a missing baseline fails before the suite
// spends a minute measuring.
func TestDiffAgainstFlagValidation(t *testing.T) {
	if _, err := run(context.Background(), []string{"-diff-against", "BENCH_snapshot.json"}); err == nil {
		t.Fatal("-diff-against without -json must error")
	}
	if _, err := run(context.Background(), []string{"-concur", "LinkedList", "-json", "x.json", "-diff-against", "y.json"}); err == nil {
		t.Fatal("-diff-against with -concur must error")
	}
	code, err := run(context.Background(), []string{"-json", "/tmp/fabench-test-unwritten.json", "-diff-against", "/nonexistent/baseline.json"})
	if err == nil || code != 1 {
		t.Fatalf("missing baseline: code=%d err=%v, want fast failure", code, err)
	}
	if _, statErr := os.Stat("/tmp/fabench-test-unwritten.json"); statErr == nil {
		t.Fatal("suite must not have run (baseline load precedes measurement)")
	}
}
