package inject

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"failatomic/internal/fault"
)

// misbehavingProgram wraps testProgram so that when the injected exception
// of the target point reaches the workload's top level, misbehave decides
// the run's fate (block, panic foreign, or re-panic r to behave normally).
// Every other point re-panics and behaves exactly like testProgram.
func misbehavingProgram(target int, misbehave func(attempt int, r any)) *Program {
	p := testProgram()
	inner := p.Run
	var attempts int32
	p.Run = func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if e, ok := r.(*fault.Exception); ok && e.Injected && e.Point == target {
				misbehave(int(atomic.AddInt32(&attempts, 1)), r)
				return
			}
			panic(r)
		}()
		inner()
	}
	return p
}

// parallelisms runs a subtest under the sequential and parallel campaign
// modes — supervision must behave identically in both.
func parallelisms(t *testing.T, f func(t *testing.T, workers int)) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		name := "sequential"
		if workers > 1 {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) { f(t, workers) })
	}
}

// assertOthersMatchBaseline checks the acceptance criterion's second half:
// every non-quarantined point classifies exactly as in a clean campaign.
func assertOthersMatchBaseline(t *testing.T, res, baseline *Result, skip map[int]bool) {
	t.Helper()
	if len(res.Runs) != len(baseline.Runs) {
		t.Fatalf("run count %d != baseline %d", len(res.Runs), len(baseline.Runs))
	}
	for i, run := range res.Runs {
		if skip[run.InjectionPoint] {
			continue
		}
		if !reflect.DeepEqual(run, baseline.Runs[i]) {
			t.Errorf("point %d differs from baseline:\n got %+v\nwant %+v",
				run.InjectionPoint, run, baseline.Runs[i])
		}
	}
}

const hangPoint = 5

func TestSupervisorQuarantinesHangingPoint(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		baseline, err := Campaign(context.Background(), testProgram(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		t.Cleanup(func() { close(gate) }) // release the abandoned goroutines
		p := misbehavingProgram(hangPoint, func(int, any) { <-gate })

		start := time.Now()
		res, err := Campaign(context.Background(), p, Options{
			Parallelism: workers,
			RunTimeout:  30 * time.Millisecond,
			MaxRetries:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// 2 attempts x 30ms + backoff; anything near a second means the
		// watchdog did not fire.
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("campaign took %v — watchdog did not bound the hang", d)
		}
		want := []Quarantine{{
			InjectionPoint: hangPoint,
			Status:         RunHung,
			Retries:        1,
			Err:            "run exceeded RunTimeout 30ms",
		}}
		if !reflect.DeepEqual(res.Quarantined, want) {
			t.Fatalf("Quarantined = %+v, want %+v", res.Quarantined, want)
		}
		hung := res.Runs[hangPoint]
		if hung.Status != RunHung || hung.Marks != nil || hung.Escaped != nil {
			t.Fatalf("hung run must carry no session observations: %+v", hung)
		}
		if res.Injections != baseline.Injections-1 {
			t.Fatalf("Injections = %d, want baseline-1 = %d", res.Injections, baseline.Injections-1)
		}
		assertOthersMatchBaseline(t, res, baseline, map[int]bool{hangPoint: true})
	})
}

// TestSupervisorRetryAfterHangGetsFreshSession: a hung attempt's
// goroutine still owns the session it ran on, so the retry on the same
// worker must run on another one. The first attempt at hangPoint hangs
// past RunTimeout; once the retry is under way it wakes up and unwinds an
// organic exception through two wrapped calls, which adds two atomic
// marks (no diff replay rewrites them) to whatever session it holds. The retry succeeds, and the Result equals an
// unsupervised campaign's apart from that run's retry count. Run under
// -race, this also checks that the two goroutines share no session state.
func TestSupervisorRetryAfterHangGetsFreshSession(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		baseline, err := Campaign(context.Background(), testProgram(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		wake, woke := make(chan struct{}), make(chan struct{})
		var release sync.Once
		t.Cleanup(func() { release.Do(func() { close(wake) }) })
		p := misbehavingProgram(hangPoint, func(attempt int, r any) {
			switch attempt {
			case 1:
				<-wake
				full := &stack{Count: 1<<20 + 1}
				runGuarded(func() { full.PushSafe(1) })
				close(woke)
			case 2:
				release.Do(func() { close(wake) })
				<-woke
				panic(r)
			default:
				panic(r)
			}
		})
		res, err := Campaign(context.Background(), p, Options{
			Parallelism: workers,
			RunTimeout:  30 * time.Millisecond,
			MaxRetries:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) != 0 || res.Runs[hangPoint].Retries != 1 {
			t.Fatalf("quarantined %+v, retries %d; want the retry to succeed", res.Quarantined, res.Runs[hangPoint].Retries)
		}
		res.Runs[hangPoint].Retries = 0
		res.Program = baseline.Program
		if !reflect.DeepEqual(res, baseline) {
			t.Fatalf("retried campaign differs from the unsupervised one:\n got %+v\nwant %+v", res, baseline)
		}
	})
}

func TestSupervisorQuarantinesForeignPanic(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		baseline, err := Campaign(context.Background(), testProgram(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := misbehavingProgram(hangPoint, func(int, any) { panic("boom: corrupted state") })
		res, err := Campaign(context.Background(), p, Options{
			Parallelism: workers,
			MaxRetries:  2, // supervision without a watchdog: retries alone enable it
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) != 1 {
			t.Fatalf("Quarantined = %+v, want exactly the foreign-panic point", res.Quarantined)
		}
		q := res.Quarantined[0]
		if q.InjectionPoint != hangPoint || q.Status != RunUndetermined || q.Retries != 2 {
			t.Fatalf("quarantine = %+v", q)
		}
		if !strings.Contains(q.Err, "boom: corrupted state") {
			t.Fatalf("quarantine must carry the panic message: %q", q.Err)
		}
		run := res.Runs[hangPoint]
		if run.Status != RunUndetermined || run.Escaped == nil || !run.Escaped.Foreign {
			t.Fatalf("crashed run must keep its foreign escape: %+v", run)
		}
		if run.Escaped.Stack == "" || strings.Contains(run.Escaped.Stack, "0x") {
			t.Fatalf("foreign escape must carry a normalized stack: %q", run.Escaped.Stack)
		}
		assertOthersMatchBaseline(t, res, baseline, map[int]bool{hangPoint: true})
	})
}

func TestSupervisorRetriesFlakyPoint(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		baseline, err := Campaign(context.Background(), testProgram(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// First attempt crashes; the retry re-panics the injected exception
		// and the run completes normally.
		p := misbehavingProgram(hangPoint, func(attempt int, r any) {
			if attempt == 1 {
				panic("flaky: transient crash")
			}
			panic(r)
		})
		res, err := Campaign(context.Background(), p, Options{
			Parallelism: workers,
			RunTimeout:  5 * time.Second,
			MaxRetries:  3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) != 0 {
			t.Fatalf("a point that succeeds on retry must not be quarantined: %+v", res.Quarantined)
		}
		run := res.Runs[hangPoint]
		if run.Retries != 1 || run.Status != RunOK {
			t.Fatalf("flaky run = %+v, want RunOK after 1 retry", run)
		}
		// Apart from the retry count, the recovered run is the baseline run.
		run.Retries = 0
		if !reflect.DeepEqual(run, baseline.Runs[hangPoint]) {
			t.Fatalf("recovered run differs from baseline:\n got %+v\nwant %+v", run, baseline.Runs[hangPoint])
		}
		if res.Injections != baseline.Injections {
			t.Fatalf("Injections = %d, want %d", res.Injections, baseline.Injections)
		}
		assertOthersMatchBaseline(t, res, baseline, map[int]bool{hangPoint: true})
	})
}

func TestSupervisorQuarantineBudget(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		// Two crashing points, budget of one.
		bad := map[int]bool{4: true, 7: true}
		p := testProgram()
		inner := p.Run
		p.Run = func() {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if e, ok := r.(*fault.Exception); ok && e.Injected && bad[e.Point] {
					panic("bad point")
				}
				panic(r)
			}()
			inner()
		}
		_, err := Campaign(context.Background(), p, Options{
			Parallelism:    workers,
			MaxRetries:     1,
			MaxQuarantined: 1,
		})
		if !errors.Is(err, ErrQuarantineBudget) {
			t.Fatalf("err = %v, want ErrQuarantineBudget", err)
		}
		// With room for both, the campaign completes and reports them.
		res, err := Campaign(context.Background(), p, Options{
			Parallelism:    workers,
			MaxRetries:     1,
			MaxQuarantined: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) != 2 ||
			res.Quarantined[0].InjectionPoint != 4 || res.Quarantined[1].InjectionPoint != 7 {
			t.Fatalf("Quarantined = %+v, want points 4 and 7 in order", res.Quarantined)
		}
	})
}

func TestSupervisedCampaignHonorsCancellation(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		res, err := Campaign(ctx, testProgram(), Options{
			Parallelism: workers,
			RunTimeout:  time.Second,
			OnRun: func(Run) error {
				once.Do(cancel) // cancel as soon as the first run lands
				return nil
			},
		})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("res=%v err=%v, want context.Canceled", res, err)
		}
	})
}

func TestCampaignSplicesCompletedRuns(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		p := testProgram()
		baseline, err := Campaign(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Resume from a journal holding the clean run and the first half of
		// the points.
		completed := make(map[RunKey]Run)
		for _, run := range baseline.Runs[:len(baseline.Runs)/2] {
			completed[run.Key()] = run
		}
		var mu sync.Mutex
		notified := make(map[int]bool)
		res, err := Campaign(context.Background(), p, Options{
			Parallelism: workers,
			Completed:   completed,
			OnRun: func(r Run) error {
				mu.Lock()
				notified[r.InjectionPoint] = true
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Runs, baseline.Runs) {
			t.Fatalf("resumed campaign differs from baseline:\n got %+v\nwant %+v", res.Runs, baseline.Runs)
		}
		if res.Injections != baseline.Injections || !reflect.DeepEqual(res.Warnings, baseline.Warnings) {
			t.Fatalf("resumed tallies differ: injections %d/%d warnings %v/%v",
				res.Injections, baseline.Injections, res.Warnings, baseline.Warnings)
		}
		for key := range completed {
			if notified[key.Point] {
				t.Errorf("spliced point %d must not be re-journaled", key.Point)
			}
		}
		for ip := 0; ip <= res.TotalPoints; ip++ {
			if _, done := completed[RunKey{Point: ip}]; !done && !notified[ip] {
				t.Errorf("fresh point %d must be journaled", ip)
			}
		}
	})
}

func TestCampaignRejectsForeignJournal(t *testing.T) {
	// A journal holding points beyond the clean run's space means the
	// workload is nondeterministic or the journal belongs to another
	// program — resuming from it would corrupt the result silently.
	_, err := Campaign(context.Background(), testProgram(), Options{
		Completed: map[RunKey]Run{{Point: 999}: {InjectionPoint: 999}},
	})
	if err == nil || !strings.Contains(err.Error(), "resume journal") {
		t.Fatalf("err = %v, want resume-journal validation error", err)
	}
}
