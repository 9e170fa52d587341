// Package bench runs the snapshot-engine benchmark suite programmatically
// (testing.Benchmark) and renders machine-readable results. cmd/fabench
// -json uses it to emit the repo's committed perf trajectory
// (BENCH_snapshot.json): the capture-vs-fingerprint snapshot ablation, the
// detect prologue in both modes, representative Table 1 campaigns, and the
// parallel-scheduler guard.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/core"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/objgraph"
)

// Result is one benchmark's measured costs.
type Result struct {
	// Name identifies the benchmark (slash-separated, bench-style).
	Name string `json:"name"`
	// N is the iteration count testing.Benchmark settled on.
	N int `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
}

// measure runs one benchmark function with allocation reporting.
func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return Result{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// snapshotSizes are the object sizes of the snapshot ablation, matching
// BenchmarkObjgraphCapture.
var snapshotSizes = []int{64, 4 << 10, 64 << 10}

// campaignApps are the Table 1 rows measured per snapshot mode — a
// representative spread (red-black tree, linked list, hash map) rather
// than all sixteen, keeping artifact regeneration under a minute.
var campaignApps = []string{"RBMap", "LinkedList", "HashedMap"}

// perturbApp is the application the per-strategy campaign-cost cells
// measure: LinkedList is the paper's running example and its point space
// keeps the burst grid affordable.
const perturbApp = "LinkedList"

// SnapshotSuite runs the full snapshot-engine suite and returns its
// results in a fixed order. perturb is a fadetect -perturb spec adding
// per-strategy campaign-cost cells ("campaign-perturb/<app>/<strategy>"),
// or "" for the classic suite.
func SnapshotSuite(ctx context.Context, perturb string) ([]Result, error) {
	perturbations, err := inject.ParsePerturbations(perturb)
	if err != nil {
		return nil, err
	}
	var out []Result

	for _, size := range snapshotSizes {
		target := harness.NewBenchTarget(size)
		out = append(out,
			measure(fmt.Sprintf("objgraph/capture/size=%d", size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if g := objgraph.Capture(target); g.Nodes() == 0 {
						b.Fatal("empty graph")
					}
				}
			}),
			// The default engine: every call hashes the whole graph, as
			// every detect snapshot does.
			measure(fmt.Sprintf("objgraph/fingerprint/size=%d", size), func(b *testing.B) {
				var fp objgraph.FP
				for i := 0; i < b.N; i++ {
					fp = objgraph.Fingerprint(target)
				}
				if fp == (objgraph.FP{}) {
					b.Fatal("zero fingerprint")
				}
			}),
		)
	}

	for _, mode := range []core.SnapshotMode{core.SnapshotFingerprint, core.SnapshotCapture} {
		mode := mode
		out = append(out, measure("enter-detect/"+mode.String(), func(b *testing.B) {
			session := core.NewSession(core.Config{Detect: true, Snapshot: mode})
			if err := core.Install(session); err != nil {
				b.Fatal(err)
			}
			defer core.Uninstall(session)
			target := harness.NewBenchTarget(4 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target.Work()
			}
		}))
	}

	for _, name := range campaignApps {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown app %q", name)
		}
		for _, mode := range []core.SnapshotMode{core.SnapshotFingerprint, core.SnapshotCapture} {
			mode := mode
			out = append(out, measure("campaign/"+name+"/"+mode.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := inject.Campaign(ctx, app.Build(), inject.Options{Snapshot: mode})
					if err != nil {
						b.Fatal(err)
					}
					if res.Injections == 0 {
						b.Fatal("no injections")
					}
				}
			}))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// The parallel-scheduler guard: BenchmarkCampaignParallel's shape under
	// the default engine, so the committed artifact pins that the
	// fingerprint engine did not regress the parallel campaign.
	app, _ := apps.ByName("RBMap")
	out = append(out, measure("campaign-parallel/RBMap/workers=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := inject.Campaign(ctx, app.Build(), inject.Options{Parallelism: 4})
			if err != nil {
				b.Fatal(err)
			}
			if res.Injections == 0 {
				b.Fatal("no injections")
			}
		}
	}))

	// Per-strategy campaign cost: one cell per requested perturbation
	// model, each a full campaign running only the default sweep plus that
	// model's grid — what a -perturb flag adds to a detection campaign's
	// bill.
	for _, pert := range perturbations {
		pert := pert
		papp, ok := apps.ByName(perturbApp)
		if !ok {
			return nil, fmt.Errorf("bench: unknown app %q", perturbApp)
		}
		out = append(out, measure("campaign-perturb/"+perturbApp+"/"+pert.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := inject.Campaign(ctx, papp.Build(), inject.Options{
					Perturbations: []inject.Perturbation{pert},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Injections == 0 {
					b.Fatal("no injections")
				}
			}
		}))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, ctx.Err()
}

// WriteJSON renders results as indented JSON (one committed artifact).
func WriteJSON(results []Result) ([]byte, error) {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render prints a human summary table of the suite.
func Render(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %12s %12s\n", "benchmark", "ns/op", "allocs/op", "bytes/op")
	for _, r := range results {
		fmt.Fprintf(&b, "%-40s %14.0f %12d %12d\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	return b.String()
}
