package cli

import (
	"strings"
	"testing"

	"failatomic/internal/fault"
	"failatomic/internal/inject"
)

func TestRenderQuarantineEmpty(t *testing.T) {
	if out := RenderQuarantine("x", nil); out != "" {
		t.Fatalf("no quarantine must render nothing, got %q", out)
	}
}

func TestRenderQuarantineLines(t *testing.T) {
	out := RenderQuarantine("LinkedList", []inject.Quarantine{
		{InjectionPoint: 7, Status: inject.RunHung, Retries: 2, Err: "run exceeded RunTimeout 50ms"},
		{InjectionPoint: 12, Status: inject.RunUndetermined, Retries: 1, Kind: fault.RuntimeError, Err: "foreign panic: boom"},
		{InjectionPoint: 2, Strategy: "concur", Sched: 2, Status: inject.RunHung, Err: "stalled"},
	})
	for _, want := range []string{
		"QUARANTINED (LinkedList): 3 injection point(s)",
		"point 7", "hung", "retries=2", "RunTimeout",
		"point 12", "undetermined", "kind=RuntimeError", "foreign panic: boom",
		"concur[2,0]#2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Default-strategy lines keep their historical layout byte for byte.
	lines := strings.Split(out, "\n")
	if want := "  point 7      hung          kind=-              retries=2  run exceeded RunTimeout 50ms"; lines[1] != want {
		t.Errorf("default line = %q, want %q", lines[1], want)
	}
	if want := "  concur[2,0]#2 hung          kind=-              retries=0  stalled"; lines[3] != want {
		t.Errorf("schedule line = %q, want %q", lines[3], want)
	}
}

func TestExitCodesAreDistinct(t *testing.T) {
	if ExitOK == ExitFailure || ExitFailure == ExitQuarantined || ExitOK == ExitQuarantined {
		t.Fatal("exit codes must be pairwise distinct")
	}
}
