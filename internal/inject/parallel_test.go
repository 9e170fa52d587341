package inject

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// TestParallelCampaignMatchesSequential is the scheduler's determinism
// contract: over a deterministic workload, any Parallelism produces the
// exact Result of the sequential campaign — same runs, same order, same
// marks, same warnings. Run under -race.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	seq, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := Campaign(context.Background(), testProgram(), Options{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.TotalPoints != seq.TotalPoints || par.Injections != seq.Injections {
			t.Fatalf("workers=%d: totals differ: %d/%d vs %d/%d", workers,
				par.TotalPoints, par.Injections, seq.TotalPoints, seq.Injections)
		}
		if !reflect.DeepEqual(par.CleanCalls, seq.CleanCalls) {
			t.Fatalf("workers=%d: clean calls differ", workers)
		}
		if !reflect.DeepEqual(par.Warnings, seq.Warnings) {
			t.Fatalf("workers=%d: warnings differ: %v vs %v", workers, par.Warnings, seq.Warnings)
		}
		if len(par.Runs) != len(seq.Runs) {
			t.Fatalf("workers=%d: run counts differ", workers)
		}
		for i := range seq.Runs {
			a, b := seq.Runs[i], par.Runs[i]
			if a.InjectionPoint != b.InjectionPoint {
				t.Fatalf("workers=%d run %d: point order differs", workers, i)
			}
			if !reflect.DeepEqual(a.Injected, b.Injected) || !reflect.DeepEqual(a.Escaped, b.Escaped) {
				t.Fatalf("workers=%d run %d: exceptions differ", workers, i)
			}
			if !reflect.DeepEqual(a.Marks, b.Marks) {
				t.Fatalf("workers=%d run %d: marks differ:\n%+v\nvs\n%+v", workers, i, a.Marks, b.Marks)
			}
		}
	}
}

// TestScopedCampaignMatchesSequential: every run of a campaign, with one
// worker or several, executes on a session bound to its goroutine — none
// takes the global slot, so campaigns coexist with an installed Protect —
// and the merged Result does not depend on the worker count.
func TestScopedCampaignMatchesSequential(t *testing.T) {
	var runs [][]Run
	for _, workers := range []int{1, 4} {
		p := testProgram()
		body := p.Run
		var unbound atomic.Int64
		p.Run = func() {
			if core.Active() != nil || core.Current() == nil {
				unbound.Add(1)
			}
			body()
		}
		res, err := Campaign(context.Background(), p, Options{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := unbound.Load(); n != 0 {
			t.Fatalf("workers=%d: %d runs executed without a bound session", workers, n)
		}
		runs = append(runs, res.Runs)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("one worker and four workers must merge identical runs")
	}
}

// TestScopedCampaignsRunConcurrently: several one-worker campaigns in
// flight at once must not contend for the global slot — the exact
// failure mode of two faserve jobs on one process.
func TestScopedCampaignsRunConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Campaign(context.Background(), testProgram(), Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
}

func TestParallelCampaignWithMasking(t *testing.T) {
	res, err := Campaign(context.Background(), testProgram(), Options{
		Parallelism: 4,
		Mask:        map[string]bool{"stack.Push": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		for _, m := range run.Marks {
			if m.Method == "stack.Push" && !m.Atomic {
				t.Fatalf("masked Push marked non-atomic at point %d", run.InjectionPoint)
			}
		}
	}
}

func TestParallelCampaignBudget(t *testing.T) {
	_, err := Campaign(context.Background(), testProgram(), Options{Parallelism: 4, MaxRuns: 3})
	if !errors.Is(err, ErrTooManyRuns) {
		t.Fatalf("err = %v, want ErrTooManyRuns", err)
	}
}

// TestBudgetCountsCleanRun pins the accounting fix: a campaign needs
// TotalPoints+1 executions, so MaxRuns == TotalPoints must be rejected and
// MaxRuns == TotalPoints+1 accepted — on both paths.
func TestBudgetCountsCleanRun(t *testing.T) {
	probe, err := Campaign(context.Background(), testProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := probe.TotalPoints
	for _, workers := range []int{1, 4} {
		if _, err := Campaign(context.Background(), testProgram(), Options{Parallelism: workers, MaxRuns: total}); !errors.Is(err, ErrTooManyRuns) {
			t.Errorf("workers=%d MaxRuns=%d: err = %v, want ErrTooManyRuns (clean run uncounted?)", workers, total, err)
		}
		if _, err := Campaign(context.Background(), testProgram(), Options{Parallelism: workers, MaxRuns: total + 1}); err != nil {
			t.Errorf("workers=%d MaxRuns=%d: unexpected error %v", workers, total+1, err)
		}
	}
}

// TestConcurrentCampaigns runs several whole campaigns at once — the
// global-session bottleneck the scoped registry removes. Run under -race.
func TestConcurrentCampaigns(t *testing.T) {
	const campaigns = 4
	results := make([]*Result, campaigns)
	errs := make([]error, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Campaign(context.Background(), testProgram(), Options{Parallelism: 2})
		}(i)
	}
	wg.Wait()
	for i := 0; i < campaigns; i++ {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		if results[i].TotalPoints != results[0].TotalPoints ||
			results[i].Injections != results[0].Injections {
			t.Fatalf("campaign %d disagrees with campaign 0", i)
		}
	}
	if core.Active() != nil {
		t.Fatal("no global session may leak from scoped campaigns")
	}
}

// deadPointProgram builds a workload whose clean run is much longer than
// every later run, leaving n dead injection points.
func deadPointProgram(extra int) *Program {
	calls := 0
	reg := core.NewRegistry().Method("stack", "Push").
		Method("stack", "PushSafe").
		Method("stack", "ensure", fault.CapacityExceeded)
	return &Program{
		Name:     "flaky",
		Registry: reg,
		Run: func() {
			calls++
			s := &stack{}
			s.Push(1)
			if calls == 1 {
				for i := 0; i < extra; i++ {
					s.Push(i)
				}
			}
		},
	}
}

func TestWarningsCappedAndSummarized(t *testing.T) {
	res, err := Campaign(context.Background(), deadPointProgram(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("dead points must warn")
	}
	if len(res.Warnings) > MaxDeadPointWarnings+1 {
		t.Fatalf("%d warnings, want at most %d + summary", len(res.Warnings), MaxDeadPointWarnings)
	}
	last := res.Warnings[len(res.Warnings)-1]
	if len(res.Warnings) == MaxDeadPointWarnings+1 && !strings.Contains(last, "more points never fired") {
		t.Fatalf("final warning must summarize the overflow, got %q", last)
	}
}

func TestWarningsBelowCapAreKeptVerbatim(t *testing.T) {
	// Few dead points: every warning is kept, no summary appended.
	res, err := Campaign(context.Background(), deadPointProgram(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 || len(res.Warnings) > MaxDeadPointWarnings {
		t.Fatalf("small campaigns keep all warnings: %v", res.Warnings)
	}
	for _, w := range res.Warnings {
		if !strings.Contains(w, "never fired:") {
			t.Fatalf("unexpected summary below the cap: %q", w)
		}
	}
}
