package repair

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/inject"
	"failatomic/internal/weave"
)

// TestRepairWorkflowLinkedList runs the full detect → mask → verify loop:
// campaign over the bundled LinkedList, strategy-aware rewrite of the
// embedded tree, child rebuilds of both trees, and the in-process masked
// verification. It is the programmatic form of the farepair CLI run CI
// pins a golden for.
func TestRepairWorkflowLinkedList(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs child Go programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	report, err := Run(context.Background(), Config{
		App:        "LinkedList",
		WorkDir:    t.TempDir(),
		ModuleRoot: moduleRoot,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(report.Pure) == 0 {
		t.Fatal("phase-1 campaign found no pure failure non-atomic methods")
	}
	if !report.BaselineChecked {
		t.Error("baseline verification did not run")
	}
	if len(report.VerifiedPure) != 0 {
		t.Errorf("repaired tree still classifies pure non-atomic: %v", report.VerifiedPure)
	}
	if len(report.MaskResidue) != 0 {
		t.Errorf("masked campaign left residue: %v", report.MaskResidue)
	}
	if !report.Succeeded() {
		t.Error("report.Succeeded() = false")
	}

	// Every wrap-set method must carry a rung and a rewrite record.
	if report.Plan == nil || len(report.Plan.Strategies) != len(report.Plan.Wrap) {
		t.Fatalf("strategy assignments incomplete: %+v", report.Plan)
	}
	rungs := make(map[string]int)
	for _, a := range report.Plan.Strategies {
		rungs[a.Strategy]++
	}
	if rungs[weave.StrategyReorder] == 0 || rungs[weave.StrategyCheckpoint] == 0 {
		t.Errorf("expected both reorder and checkpoint rungs on LinkedList, got %v", rungs)
	}

	// The overhead table covers every assigned rung and records masked
	// calls for the wrapped methods.
	if len(report.Overhead) == 0 {
		t.Fatal("no per-strategy overhead rows")
	}
	var calls int64
	for _, o := range report.Overhead {
		calls += o.Calls
	}
	if calls == 0 {
		t.Error("masked campaign recorded no checkpointed calls")
	}

	out := report.Render()
	for _, want := range []string{
		"repair report: LinkedList",
		"masking plan: wrap",
		"strategy assignments (Item-76 ladder):",
		"[verify] repaired tree: 0 pure failure non-atomic method(s)",
		"per-strategy masking overhead:",
		"§6.1 extended:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ns/op") {
		t.Error("deterministic report contains wall-clock output")
	}
}

// TestMaskedVerificationIgnoresPerturbations: phase 5 verifies the wrap
// plan under the baseline fault model it was built from, so a repair whose
// detection campaign also ran a perturbation grid reports the same masking
// overhead as one that did not.
func TestMaskedVerificationIgnoresPerturbations(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs child Go programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	overhead := func(perturb string) []StrategyOverhead {
		t.Helper()
		perts, err := inject.ParsePerturbations(perturb)
		if err != nil {
			t.Fatal(err)
		}
		report, err := Run(context.Background(), Config{
			App:          "LinkedList",
			WorkDir:      t.TempDir(),
			ModuleRoot:   moduleRoot,
			SkipBaseline: true,
			Options:      inject.Options{Perturbations: perts},
		})
		if err != nil {
			t.Fatal(err)
		}
		return report.Overhead
	}
	plain, perturbed := overhead(""), overhead("nth=2")
	if len(plain) == 0 {
		t.Fatal("no per-strategy overhead rows")
	}
	if !reflect.DeepEqual(perturbed, plain) {
		t.Fatalf("nth=2 repair overhead differs:\n got %+v\nwant %+v", perturbed, plain)
	}
}

// TestSupportedApp pins the supported-tree predicate the serve layer
// validates repair job specs against.
func TestSupportedApp(t *testing.T) {
	if !SupportedApp("LinkedList") {
		t.Error("LinkedList must be supported")
	}
	if SupportedApp("RBMap") {
		t.Error("RBMap has no embedded tree")
	}
}

// TestRepairGoldenLinkedList pins the committed farepair golden in the Go
// test suite: the report of a default `farepair -app LinkedList` run —
// strategy assignments, verification lines and the per-strategy masking
// overhead table — must match testdata/golden/farepair-linkedlist.txt
// byte for byte.
func TestRepairGoldenLinkedList(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs child Go programs")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(moduleRoot, "testdata", "golden", "farepair-linkedlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The options farepair's flag defaults produce.
	report, err := Run(context.Background(), Config{
		App:        "LinkedList",
		WorkDir:    t.TempDir(),
		ModuleRoot: moduleRoot,
		Options:    inject.Options{Repeats: 1, Parallelism: 1, Snapshot: core.SnapshotFingerprint},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Render(); got != string(want) {
		t.Fatalf("farepair LinkedList report differs from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
