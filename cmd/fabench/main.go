// Command fabench runs the paper's Figure 5 experiment: the performance
// overhead of automatic masking as a function of checkpointed object size
// and percentage of calls to masked methods, each point the median of 40
// runs (§6.2). The -strategy flag additionally runs the undo-log
// checkpointing ablation (the paper's copy-on-write suggestion).
//
// SIGINT/SIGTERM interrupt the sweep between size rows; the process exits
// nonzero.
//
// The sweep is always sequential and unsupervised: its cells are timings,
// and concurrent or abandoned cells would measure contention instead of
// masking. A quick smoke sweep is "fabench -runs 3".
//
// -json FILE skips the Figure 5 sweep and instead runs the snapshot-engine
// benchmark suite (capture vs fingerprint ablation, detect prologue,
// representative campaigns), writing ns/op, allocs/op and bytes/op to FILE;
// the committed BENCH_snapshot.json is regenerated this way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"failatomic/internal/bench"
	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/harness"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabench:", err)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("fabench", flag.ContinueOnError)
	var (
		runs     = fs.Int("runs", 40, "runs per point (median reported)")
		calls    = fs.Int("calls", 2000, "method calls per run")
		strategy = fs.String("strategy", "deepcopy", `checkpoint strategy: "deepcopy" or "undolog-compare" (runs both)`)
		jsonOut  = fs.String("json", "", "run the snapshot-engine benchmark suite instead of the Figure 5 sweep and write JSON results to this file")
		against  = fs.String("diff-against", "", "with -json: committed BENCH_*.json baseline; exit 3 if a shared cell's ns/op regressed >25% or its allocs/op changed")
		perturb  = fs.String("perturb", "", `with -json: add per-strategy campaign-cost cells for this fadetect -perturb spec (e.g. "nth=3,burst,defer,oblivious")`)
		concurT  = fs.String("concur", "", "run the concurrent schedule-sweep cost cells for this target (e.g. LinkedList) instead of the Figure 5 sweep; with -json, also write the cells to the file")
		seed     = fs.Int64("seed", concur.DefaultSeed, "with -concur: campaign seed for the schedule sweep")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitFailure, err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet && *concurT == "" {
		return cli.ExitFailure, fmt.Errorf("-seed requires -concur (only schedule campaigns are seeded)")
	}
	switch *strategy {
	case "deepcopy":
	case "undolog-compare":
		if *jsonOut != "" || *concurT != "" {
			return cli.ExitFailure, fmt.Errorf("-strategy undolog-compare applies to the Figure 5 sweep, not to -json or -concur")
		}
	default:
		return cli.ExitFailure, fmt.Errorf(`-strategy %q: want "deepcopy" or "undolog-compare"`, *strategy)
	}
	if *against != "" && (*jsonOut == "" || *concurT != "") {
		return cli.ExitFailure, fmt.Errorf("-diff-against requires -json (the snapshot suite is the gated artifact)")
	}
	if *concurT != "" {
		if *perturb != "" {
			return cli.ExitFailure, fmt.Errorf("-perturb does not apply to -concur")
		}
		if err := runConcurSweep(*concurT, *seed, *jsonOut); err != nil {
			return cli.ExitFailure, err
		}
		return cli.ExitOK, nil
	}
	if *jsonOut != "" {
		return runSnapshotSuite(ctx, *jsonOut, *perturb, *against)
	}
	if *perturb != "" {
		return cli.ExitFailure, fmt.Errorf("-perturb requires -json (the Figure 5 sweep measures masking, not detection)")
	}
	cfg := harness.DefaultFigure5Config()
	cfg.Runs = *runs
	cfg.Calls = *calls

	points, err := harness.Figure5(ctx, cfg)
	if err != nil {
		return cli.ExitFailure, err
	}
	fmt.Print(harness.RenderFigure5(points))

	if *strategy == "undolog-compare" {
		fmt.Print("\nAblation: undolog checkpointing (journaled bench target)\n")
		ablation, err := harness.Figure5Journal(ctx, cfg)
		if err != nil {
			return cli.ExitFailure, err
		}
		fmt.Print(harness.RenderFigure5(ablation))
	}
	return cli.ExitOK, nil
}

// runConcurSweep measures the schedule-sweep cost cells for one
// concurrent target, echoing the table to stdout (and, with -json,
// writing the machine-readable cells to the file).
func runConcurSweep(target string, seed int64, jsonOut string) error {
	results, err := bench.ConcurSuite(target, seed)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		data, err := bench.WriteJSON(results)
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Print(bench.Render(results))
	if jsonOut != "" {
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// runSnapshotSuite measures the snapshot engines and writes the results
// as JSON, echoing a human-readable table to stdout. With a baseline, it
// then gates the fresh numbers against the committed artifact: >25%
// ns/op regression or any allocs/op change on a shared cell exits 3.
func runSnapshotSuite(ctx context.Context, path, perturb, against string) (int, error) {
	var baseline []bench.Result
	if against != "" {
		// Load the baseline before spending a minute measuring, so a bad
		// path fails fast.
		var err error
		if baseline, err = bench.ReadJSON(against); err != nil {
			return cli.ExitFailure, err
		}
	}
	results, err := bench.SnapshotSuite(ctx, perturb)
	if err != nil {
		return cli.ExitFailure, err
	}
	data, err := bench.WriteJSON(results)
	if err != nil {
		return cli.ExitFailure, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return cli.ExitFailure, err
	}
	fmt.Print(bench.Render(results))
	fmt.Printf("wrote %s\n", path)
	if against != "" {
		if violations := bench.DiffSnapshots(baseline, results); len(violations) > 0 {
			fmt.Printf("\nREGRESSION against %s: %d violation(s)\n", against, len(violations))
			for _, v := range violations {
				fmt.Printf("  %s\n", v)
			}
			return cli.ExitDrift, nil
		}
		fmt.Printf("no regression against %s\n", against)
	}
	return cli.ExitOK, nil
}
