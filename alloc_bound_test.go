package failatomic_test

import (
	"context"
	"runtime"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/core"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
)

// TestHandlePrologueAllocs guards the route every bundled application
// takes: a method handle's prologue on a goroutine-bound session (the
// campaign worker's case) with fingerprint detection allocates nothing
// once warm. The binding record is made once per Bind, never per call.
func TestHandlePrologueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	session := core.NewSession(core.Config{Detect: true})
	target := harness.NewBenchTarget(4 << 10)
	var allocs, bytes float64
	session.Bind(func() { allocs, bytes = steadyCost(target.Work) })
	if allocs > 0 || bytes > 0 {
		t.Fatalf("bound handle detect prologue = %.2f allocs, %.1f B per call; want 0", allocs, bytes)
	}
	if n := session.Calls()["BenchTarget.Work"]; n != 1+windows*runs {
		t.Fatalf("bound session counted %d calls, want %d", n, 1+windows*runs)
	}
}

// campaignReuseBytes bounds what TestCampaignReuseAllocs allows: the
// second RBMap detection campaign plus its masking re-campaign
// (cli.CampaignReport) allocated 1,754 KB on linux/amd64 with go1.24, so
// the bound leaves 14% headroom. With a fresh heap for every campaign's
// workers and clean captures it allocated 2,998 KB.
const campaignReuseBytes = 2_000_000

// TestCampaignReuseAllocs guards campaign memory that outlives a
// campaign: workers come off the process's idle stack with their
// sessions, walkers and free lists, a campaign's clean captures go back
// to its clean worker's free list, and a run's mark calls, diff paths and
// masking statistics are never copied out of the sweep. So once one RBMap
// campaign and its re-campaign have run, the next pair allocates mostly
// what the workload, the marks and the result need.
func TestCampaignReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	app, ok := apps.ByName("RBMap")
	if !ok {
		t.Fatal("no RBMap app")
	}
	ctx := context.Background()
	campaign := func() {
		res, err := harness.RunApp(ctx, app, inject.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cli.CampaignReport(ctx, app, inject.Options{}, res); err != nil {
			t.Fatal(err)
		}
	}
	campaign()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	campaign()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > campaignReuseBytes {
		t.Fatalf("second RBMap campaign and re-campaign allocated %d B, want at most %d", got, campaignReuseBytes)
	}
}
