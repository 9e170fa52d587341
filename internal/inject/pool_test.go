package inject

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// idleSessions returns the sessions of the workers on the idle stack.
func idleSessions() []*core.Session {
	idle.Lock()
	defer idle.Unlock()
	var out []*core.Session
	for _, w := range idle.workers {
		out = append(out, w.session)
	}
	return out
}

// TestHungAttemptNeverPooled: a supervised attempt that hangs keeps the
// session it ran on and may still read its campaign's span index, so the
// campaign neither puts that session on the idle stack nor hands the
// index's clean captures back for reuse. The first attempt at hangPoint
// records its bound session and parks; the retry succeeds. A second
// campaign then draws workers off the idle stack while the first attempt
// is still parked; once released, the first attempt runs the workload
// again on its own session (under -race, a session shared with the
// second campaign would be reported). A supervised campaign with no hang
// does hand its captures back.
func TestHungAttemptNeverPooled(t *testing.T) {
	parallelisms(t, func(t *testing.T, workers int) {
		opts := Options{Parallelism: workers, RunTimeout: 30 * time.Millisecond, MaxRetries: 1}
		before := reclaims.Load()
		if _, err := Campaign(context.Background(), testProgram(), opts); err != nil {
			t.Fatal(err)
		}
		if got := reclaims.Load() - before; got != 1 {
			t.Fatalf("a supervised campaign without a hang reclaimed %d times, want 1", got)
		}

		gate, resumed := make(chan struct{}), make(chan struct{})
		var release sync.Once
		t.Cleanup(func() { release.Do(func() { close(gate) }) })
		var hung atomic.Pointer[core.Session]
		p := testProgram()
		inner := p.Run
		var attempts atomic.Int32
		p.Run = func() {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if e, ok := r.(*fault.Exception); ok && e.Injected && e.Point == hangPoint && attempts.Add(1) == 1 {
					hung.Store(core.Current())
					<-gate
					runGuarded(inner)
					close(resumed)
				}
				panic(r)
			}()
			inner()
		}

		before = reclaims.Load()
		res, err := Campaign(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Quarantined) != 0 || res.Runs[hangPoint].Retries != 1 {
			t.Fatalf("hang point: quarantined %+v, retries %d; want the retry to succeed", res.Quarantined, res.Runs[hangPoint].Retries)
		}
		if got := reclaims.Load() - before; got != 0 {
			t.Fatalf("a campaign with a hung attempt reclaimed its captures %d times", got)
		}
		s := hung.Load()
		if s == nil {
			t.Fatal("the hung attempt recorded no session")
		}
		for _, idle := range idleSessions() {
			if idle == s {
				t.Fatal("the hung attempt's session is on the idle stack")
			}
		}

		if _, err := Campaign(context.Background(), testProgram(), opts); err != nil {
			t.Fatal(err)
		}
		release.Do(func() { close(gate) })
		<-resumed
		for _, idle := range idleSessions() {
			if idle == s {
				t.Fatal("the hung attempt's session reached the idle stack")
			}
		}
	})
}

// TestIdleStackBounded: however many workers are given back, the idle
// stack keeps at most maxIdleWorkers of them, whether they come back one
// by one or from concurrent campaigns that together hold more.
func TestIdleStackBounded(t *testing.T) {
	held := make([]*worker, maxIdleWorkers+3)
	for i := range held {
		held[i] = takeWorker()
	}
	for _, w := range held {
		w.giveBack()
	}
	idle.Lock()
	n := len(idle.workers)
	idle.Unlock()
	if n != maxIdleWorkers {
		t.Fatalf("after giving back %d workers the idle stack holds %d, want %d", len(held), n, maxIdleWorkers)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := Campaign(context.Background(), testProgram(), Options{Parallelism: 4}); err != nil {
					t.Error(err)
					return
				}
				idle.Lock()
				n := len(idle.workers)
				idle.Unlock()
				if n > maxIdleWorkers {
					t.Errorf("idle stack holds %d workers, bound %d", n, maxIdleWorkers)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledCampaignsMatchFresh: campaigns on workers that earlier
// campaigns gave back, sequential or at Parallelism 4 and masked or not,
// record exactly the runs and masking totals of the first campaign of
// the same kind, which drew fresh workers only if the stack was empty.
func TestPooledCampaignsMatchFresh(t *testing.T) {
	mask := map[string]bool{"stack.Push": true, "driver.Fill": true}
	for _, opts := range []Options{{}, {Parallelism: 4}, {Mask: mask}, {Mask: mask, Parallelism: 4}} {
		first, err := Campaign(context.Background(), testProgram(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := Campaign(context.Background(), testProgram(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Runs, first.Runs) || !reflect.DeepEqual(again.MaskStatTotals(), first.MaskStatTotals()) {
				t.Fatalf("%+v: campaign %d on pooled workers differs from the first", opts, i+2)
			}
		}
		if len(opts.Mask) > 0 && first.MaskStatTotals()["stack.Push"].Calls == 0 {
			t.Fatalf("%+v: masked campaign reports no masked Push calls: %+v", opts, first.MaskStatTotals())
		}
	}
}
