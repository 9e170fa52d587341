package failatomic_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"failatomic"
)

// counter is the package-level example type: Add is failure non-atomic
// (total committed before the overflow check in grow), AddSafe is atomic.
type counter struct {
	Total int
	Log   []string
}

func (c *counter) Add(n int) {
	defer failatomic.Enter(c, "counter.Add")()
	c.Total += n
	c.note("add")
}

func (c *counter) AddSafe(n int) {
	defer failatomic.Enter(c, "counter.AddSafe")()
	c.note("add")
	c.Total += n
}

func (c *counter) note(event string) {
	defer failatomic.Enter(c, "counter.note")()
	if len(c.Log) > 1024 {
		failatomic.Throw(failatomic.CapacityExceeded, "counter.note", "log full")
	}
	c.Log = append(c.Log, event)
}

func counterProgram() *failatomic.Program {
	reg := failatomic.NewRegistry().
		Method("counter", "Add").
		Method("counter", "AddSafe").
		Method("counter", "note", failatomic.CapacityExceeded)
	return &failatomic.Program{
		Name:     "counter",
		Registry: reg,
		Run: func() {
			c := &counter{}
			c.Add(1)
			c.Add(2)
			c.AddSafe(3)
		},
	}
}

func TestDetectEndToEnd(t *testing.T) {
	result, err := failatomic.Detect(context.Background(), counterProgram(), failatomic.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := result.Methods["counter.Add"].Classification; got != failatomic.ClassPure {
		t.Fatalf("Add = %v, want pure", got)
	}
	if got := result.Methods["counter.AddSafe"].Classification; got != failatomic.ClassAtomic {
		t.Fatalf("AddSafe = %v, want atomic", got)
	}
	if result.Injections() == 0 {
		t.Fatal("no injections performed")
	}
	if result.Calls()["counter.Add"] != 2 {
		t.Fatal("call counting wrong")
	}
	na := result.NonAtomicMethods()
	if len(na) != 1 || na[0] != "counter.Add" {
		t.Fatalf("NonAtomicMethods = %v", na)
	}
	rep := result.Methods["counter.Add"]
	if !strings.Contains(rep.SampleDiff, "Total") {
		t.Fatalf("diff should name Total: %q", rep.SampleDiff)
	}
}

func TestDetectWithMaskVerification(t *testing.T) {
	result, err := failatomic.Detect(context.Background(), counterProgram(), failatomic.DetectOptions{
		Mask: map[string]bool{"counter.Add": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.NonAtomicMethods()) != 0 {
		t.Fatalf("masked campaign still finds %v", result.NonAtomicMethods())
	}
}

func TestProtectMasksPanics(t *testing.T) {
	p, err := failatomic.Protect([]string{"counter.Add"}, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := &counter{Log: make([]string, 1025)}
	before := c.Total
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("masking must re-throw")
			}
		}()
		c.Add(7) // note throws CapacityExceeded after Total += 7
	}()
	if c.Total != before {
		t.Fatalf("Total = %d, want rollback to %d", c.Total, before)
	}
	if p.Rollbacks() != 1 || p.MaskedCalls() != 1 {
		t.Fatalf("counters: masked=%d rollbacks=%d", p.MaskedCalls(), p.Rollbacks())
	}
}

func TestProtectRejectsEmpty(t *testing.T) {
	if _, err := failatomic.Protect(nil, failatomic.ProtectOptions{}); err == nil {
		t.Fatal("empty Protect must fail")
	}
}

func TestProtectExclusive(t *testing.T) {
	p, err := failatomic.Protect([]string{"x.Y"}, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failatomic.Protect([]string{"x.Y"}, failatomic.ProtectOptions{}); err == nil {
		p.Close()
		t.Fatal("second Protect must fail while the first is active")
	}
	p.Close()
	p2, err := failatomic.Protect([]string{"x.Y"}, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatalf("Protect after Close: %v", err)
	}
	p2.Close()
}

func TestGraphUtilities(t *testing.T) {
	c := &counter{Total: 1}
	g1 := failatomic.CaptureGraph(c)
	c.Total = 2
	g2 := failatomic.CaptureGraph(c)
	if failatomic.GraphsEqual(g1, g2) {
		t.Fatal("graphs must differ")
	}
	if d := failatomic.GraphDiff(g1, g2); !strings.Contains(d, "Total") {
		t.Fatalf("diff = %q", d)
	}
}

func TestExceptionFrom(t *testing.T) {
	exc := failatomic.ExceptionFrom("boom")
	if exc.Kind != failatomic.RuntimeError {
		t.Fatalf("foreign panic kind = %v", exc.Kind)
	}
}

func TestPlanMasking(t *testing.T) {
	result, err := failatomic.Detect(context.Background(), counterProgram(), failatomic.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan := failatomic.PlanMasking(result, failatomic.Policy{})
	if len(plan.Wrap) != 1 || plan.Wrap[0] != "counter.Add" {
		t.Fatalf("plan.Wrap = %v", plan.Wrap)
	}
	excluded := failatomic.PlanMasking(result, failatomic.Policy{
		Intended: []string{"counter.Add"},
	})
	if len(excluded.Wrap) != 0 || len(excluded.SkippedIntended) != 1 {
		t.Fatalf("intended exclusion failed: %+v", excluded)
	}
	// Asserting note exception-free removes the only injection source that
	// revealed Add's non-atomicity.
	hinted := failatomic.PlanMasking(result, failatomic.Policy{
		ExceptionFree: []string{"counter.note"},
	})
	if len(hinted.Wrap) != 0 || len(hinted.Reclassified) != 1 {
		t.Fatalf("exception-free reclassification failed: %+v", hinted)
	}
	out := plan.Render()
	if !strings.Contains(out, "counter.Add") {
		t.Fatal("render incomplete")
	}
}

func TestProtectSerializedConcurrentCallers(t *testing.T) {
	p, err := failatomic.Protect([]string{"counter.Add"}, failatomic.ProtectOptions{
		Serialize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	shared := &counter{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				shared.Add(1)
			}
		}()
	}
	wg.Wait()
	if shared.Total != 100 {
		t.Fatalf("Total = %d, want 100", shared.Total)
	}
	if p.MaskedCalls() != 100 {
		t.Fatalf("masked calls = %d, want 100", p.MaskedCalls())
	}
}

// TestDetectParallelMatchesSequential pins the facade's parallel contract:
// DetectOptions.Parallelism changes wall-clock behavior, never results.
func TestDetectParallelMatchesSequential(t *testing.T) {
	seq, err := failatomic.Detect(context.Background(), counterProgram(), failatomic.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := failatomic.Detect(context.Background(), counterProgram(), failatomic.DetectOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Injections() != seq.Injections() {
		t.Fatalf("injections differ: %d vs %d", par.Injections(), seq.Injections())
	}
	for name, rep := range seq.Methods {
		if got := par.Methods[name].Classification; got != rep.Classification {
			t.Errorf("%s: %v (parallel) vs %v (sequential)", name, got, rep.Classification)
		}
	}
}

// TestDetectParallelCoexistsWithProtect runs detection campaigns, with one
// worker and with several, while a Protect session occupies the global
// slot: every campaign binds its sessions to its own goroutines.
func TestDetectParallelCoexistsWithProtect(t *testing.T) {
	p, err := failatomic.Protect([]string{"counter.Add"}, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, workers := range []int{1, 4} {
		result, err := failatomic.Detect(context.Background(), counterProgram(), failatomic.DetectOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		na := result.NonAtomicMethods()
		if len(na) != 1 || na[0] != "counter.Add" {
			t.Fatalf("workers=%d: NonAtomicMethods = %v (campaign must use its own bound sessions)", workers, na)
		}
	}
	if n := p.MaskedCalls(); n != 0 {
		t.Fatalf("Protect masked %d campaign calls", n)
	}
}
