// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), plus the ablation micro-benchmarks for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package failatomic_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"failatomic"
	"failatomic/internal/apps"
	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
	"failatomic/internal/detect"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/objgraph"
	"failatomic/proxy"
)

// BenchmarkTable1Campaigns runs the full detection campaign per Table 1
// application; ns/op is the cost of regenerating that row.
func BenchmarkTable1Campaigns(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Lang+"/"+app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Injections == 0 {
					b.Fatal("no injections")
				}
			}
		})
	}
}

// BenchmarkCampaignParallel measures the parallel campaign scheduler
// against the sequential baseline on one detection campaign
// (workers=1 runs the unchanged legacy path; higher worker counts fan the
// injection points out over goroutine-scoped sessions). On a machine with
// ≥ 4 cores the workers=4 variant should run the campaign ≥ 2× faster;
// per-run results are identical across all variants.
func BenchmarkCampaignParallel(b *testing.B) {
	app, ok := apps.ByName("RBMap")
	if !ok {
		b.Fatal("RBMap app missing")
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	var wantInjections int
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if wantInjections == 0 {
					wantInjections = res.Injections
				} else if res.Injections != wantInjections {
					b.Fatalf("workers=%d: %d injections, want %d", workers, res.Injections, wantInjections)
				}
			}
		})
	}
}

// BenchmarkRunAllParallel measures the whole-evaluation wall clock with
// per-app campaigns scheduled concurrently (bounded by GOMAXPROCS).
func BenchmarkRunAllParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := harness.RunAllWithOptions(context.Background(), "cpp", inject.Options{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkFigure2CppDetection regenerates the C++ group's method
// classification (Figures 2(a) and 2(b) come from the same campaigns).
func BenchmarkFigure2CppDetection(b *testing.B) {
	benchGroupDetection(b, "cpp")
}

// BenchmarkFigure3JavaDetection regenerates the Java group's method
// classification (Figures 3(a) and 3(b)).
func BenchmarkFigure3JavaDetection(b *testing.B) {
	benchGroupDetection(b, "java")
}

func benchGroupDetection(b *testing.B, lang string) {
	for i := 0; i < b.N; i++ {
		results, err := harness.RunAll(context.Background(), lang)
		if err != nil {
			b.Fatal(err)
		}
		rows := harness.MethodFigure(results, lang, false)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure4ClassRollup measures the class-distribution aggregation
// over precomputed campaign results (Figure 4's extra work over Figures
// 2/3).
func BenchmarkFigure4ClassRollup(b *testing.B) {
	app, _ := apps.ByName("RBMap")
	res, err := inject.Campaign(context.Background(), app.Build(), inject.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls := detect.Classify(res, detect.Options{})
		s := detect.Summarize(cls)
		if s.Classes == 0 {
			b.Fatal("no classes")
		}
	}
}

// BenchmarkFigure5 measures the masking overhead surface directly: one
// sub-benchmark per (object size, masked-call percentage) cell. Compare
// ns/op against the frac=0 row to read off the paper's overhead factors.
func BenchmarkFigure5(b *testing.B) {
	sizes := []int{64, 1 << 10, 16 << 10}
	fracs := []int{0, 1, 10, 100} // percent
	for _, size := range sizes {
		for _, frac := range fracs {
			name := fmt.Sprintf("size=%d/frac=%d%%", size, frac)
			b.Run(name, func(b *testing.B) {
				session := core.NewSession(core.Config{
					Mask:        true,
					MaskMethods: map[string]bool{"BenchTarget.WorkMasked": true},
				})
				if err := core.Install(session); err != nil {
					b.Fatal(err)
				}
				defer core.Uninstall(session)
				target := harness.NewBenchTarget(size)
				step := 0
				if frac > 0 {
					step = 100 / frac
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if step > 0 && i%step == 0 {
						target.WorkMasked()
					} else {
						target.Work()
					}
				}
			})
		}
	}
}

// BenchmarkFigure5UndoLogAblation is the copy-on-write ablation: the same
// sweep with journal-based checkpointing, whose cost is independent of
// object size.
func BenchmarkFigure5UndoLogAblation(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("size=%d/frac=100%%", size), func(b *testing.B) {
			session := core.NewSession(core.Config{
				Mask:        true,
				MaskMethods: map[string]bool{"JournalTarget.WorkMasked": true},
			})
			if err := core.Install(session); err != nil {
				b.Fatal(err)
			}
			defer core.Uninstall(session)
			target := harness.NewJournalTarget(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target.WorkMasked()
			}
		})
	}
}

// BenchmarkRepairExperiment regenerates the §6.1 LinkedList experiment.
func BenchmarkRepairExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.RepairExperiment(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if report.OriginalPure == 0 {
			b.Fatal("degenerate report")
		}
	}
}

// --- engine micro-benchmarks (ablations) ---

// BenchmarkEnterNoSession is the production-mode prologue cost: woven code
// with no session installed.
func BenchmarkEnterNoSession(b *testing.B) {
	target := harness.NewBenchTarget(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.Work()
	}
}

// BenchmarkEnterDetect is the detection-mode prologue cost under each
// snapshot engine: fingerprint (the default: a streaming hash, no graph
// materialized) versus capture (Listing 1's deep_copy-before-call).
func BenchmarkEnterDetect(b *testing.B) {
	for _, mode := range []core.SnapshotMode{core.SnapshotFingerprint, core.SnapshotCapture} {
		b.Run(mode.String(), func(b *testing.B) {
			session := core.NewSession(core.Config{Detect: true, Snapshot: mode})
			if err := core.Install(session); err != nil {
				b.Fatal(err)
			}
			defer core.Uninstall(session)
			target := harness.NewBenchTarget(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target.Work()
			}
		})
	}
}

// BenchmarkObjgraphCapture measures snapshot encoding by object size.
func BenchmarkObjgraphCapture(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			target := harness.NewBenchTarget(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := objgraph.Capture(target)
				if g.Nodes() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkObjgraphFingerprint times the default engine over the same
// sizes as BenchmarkObjgraphCapture: every call hashes the whole graph.
// The interesting columns are allocs/op (0 versus one per graph node).
func BenchmarkObjgraphFingerprint(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			target := harness.NewBenchTarget(size)
			b.ResetTimer()
			var fp objgraph.FP
			for i := 0; i < b.N; i++ {
				fp = objgraph.Fingerprint(target)
			}
			if fp == (objgraph.FP{}) {
				b.Fatal("zero fingerprint")
			}
		})
	}
}

// BenchmarkObjgraphDiffLive times the capture-mode epilogue over the same
// sizes on an equal after-state: the whole live graph is walked against
// its before-graph, and no Node is built.
func BenchmarkObjgraphDiffLive(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			target := harness.NewBenchTarget(size)
			before := objgraph.Capture(target)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := objgraph.DiffLive(before, target); d != "" {
					b.Fatal(d)
				}
			}
		})
	}
}

// BenchmarkObjgraphCompare measures the before/after equality check.
func BenchmarkObjgraphCompare(b *testing.B) {
	target := harness.NewBenchTarget(4 << 10)
	g1 := objgraph.Capture(target)
	g2 := objgraph.Capture(target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !objgraph.Equal(g1, g2) {
			b.Fatal("graphs must be equal")
		}
	}
}

// BenchmarkCheckpointCapture measures Listing 2's deep copy by size: a
// one-off Capture, and the masking runtime's steady state (commit/...), a
// strategy's Capture followed by Commit, whose clone slabs and objects
// the next capture reuses.
func BenchmarkCheckpointCapture(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			target := harness.NewBenchTarget(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp, err := checkpoint.Capture(target)
				if err != nil {
					b.Fatal(err)
				}
				_ = cp
			}
		})
	}
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("commit/size=%d", size), func(b *testing.B) {
			target := harness.NewBenchTarget(size)
			strategy := checkpoint.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := strategy.Capture(target)
				if err != nil {
					b.Fatal(err)
				}
				h.(checkpoint.Committer).Commit()
			}
		})
	}
}

// BenchmarkCheckpointRestore measures the in-place rollback.
func BenchmarkCheckpointRestore(b *testing.B) {
	target := harness.NewBenchTarget(4 << 10)
	cp, err := checkpoint.Capture(target)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.Sink = uint64(i)
		if err := cp.Restore(); err != nil {
			b.Fatal(err)
		}
	}
}

// proxyCounter is the proxy dispatch subject.
type proxyCounter struct {
	N int
}

// Inc bumps the counter (exported for reflection dispatch).
func (c *proxyCounter) Inc(by int) int {
	c.N += by
	return c.N
}

// BenchmarkProxyInvoke measures reflection-proxy dispatch (the Java-flavor
// interposition) against BenchmarkDirectCall.
func BenchmarkProxyInvoke(b *testing.B) {
	g := proxy.NewGenerator()
	p, err := g.Wrap(&proxyCounter{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke("Inc", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectCall is the baseline for BenchmarkProxyInvoke.
func BenchmarkDirectCall(b *testing.B) {
	c := &proxyCounter{}
	for i := 0; i < b.N; i++ {
		c.Inc(1)
	}
}

// BenchmarkPublicDetect measures the end-to-end public API on a small
// program.
func BenchmarkPublicDetect(b *testing.B) {
	reg := failatomic.NewRegistry().Method("BenchTarget", "WorkThrowing", failatomic.IllegalState)
	for i := 0; i < b.N; i++ {
		result, err := failatomic.Detect(context.Background(), &failatomic.Program{
			Name:     "bench",
			Registry: reg,
			Run: func() {
				t := harness.NewBenchTarget(64)
				defer func() { _ = recover() }()
				t.WorkThrowing()
			},
		}, failatomic.DetectOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = result
	}
}
