// Command farepair closes the paper's loop: detect → mask → verify as
// one supervised workflow. It runs a detection campaign over a bundled
// application, derives the §4.3 masking plan with an Item-76 rung per
// method (reorder the validation, temp-copy-then-swap, or a full
// checkpoint), rewrites a copy of the application's source tree per
// rung, rebuilds both trees and re-runs detection in child processes to
// prove the repaired package classifies clean, and finally re-runs the
// campaign in-process with the plan's methods masked, reporting
// per-strategy masking overhead.
//
// Usage:
//
//	farepair                          # repair the bundled LinkedList
//	farepair -out ./work              # keep the original/ and repaired/ trees
//	farepair -measure                 # append wall-clock per-rung benchmarks
//	farepair -server http://host:8080 # run as a faserve "repair" job
//
// The report goes to stdout and is deterministic (CI diffs it against a
// committed golden); progress notes go to stderr. With -server the same
// workflow runs on a faserve instance and the stored report is printed
// byte-identical to a local run.
//
// Exit codes: 0 repaired and verified clean, 1 failure (including a
// repair that left pure failure non-atomic methods or masking residue),
// 2 repaired but the campaign quarantined injection points.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"failatomic/internal/cli"
	"failatomic/internal/repair"
	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "farepair:", err)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("farepair", flag.ContinueOnError)
	var (
		appName      = fs.String("app", "LinkedList", "application to repair (must have an embedded source tree)")
		out          = fs.String("out", "", "materialize the original/ and repaired/ trees under this directory and keep them (default: a temp dir, removed afterwards)")
		module       = fs.String("module", "", "failatomic module root the rebuilt trees compile against (default: walk up from the working directory)")
		skipBaseline = fs.Bool("skip-baseline", false, "skip the baseline re-detection of the unrepaired tree")
		measure      = fs.Bool("measure", false, "append wall-clock per-strategy benchmarks (non-deterministic) after the report")
		server       = fs.String("server", "", "submit the repair as a faserve job instead of running locally")
		token        = fs.String("token", os.Getenv("FASERVE_TOKEN"), "with -server: bearer token for an authed faserve (default $FASERVE_TOKEN)")
		spec         = serve.JobSpec{Kind: serve.KindRepair}
	)
	// The campaign knobs shared with fadetect tune the phase-1 detection
	// campaign (and the verification re-runs).
	fs.IntVar(&spec.Repeats, "repeat", 1, "run each workload N times per injection run (scales #Injections; cost grows quadratically)")
	fs.IntVar(&spec.Parallelism, "parallel", 1, "campaign worker goroutines (1 = sequential, 0 = GOMAXPROCS); output is identical either way")
	fs.DurationVar(&spec.RunTimeout, "run-timeout", 0, "per-run watchdog: abandon an injection run after this long and quarantine the point (0 = off)")
	fs.IntVar(&spec.MaxRetries, "retries", 0, "retry a hung or crashed injection run this many times before quarantining it")
	fs.IntVar(&spec.MaxQuarantined, "max-quarantined", 0, "fail the campaign when more than this many points are quarantined (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitFailure, err
	}
	if spec.Parallelism <= 0 {
		spec.Parallelism = runtime.GOMAXPROCS(0)
	}
	spec.App = *appName
	if *server != "" {
		for flagName, set := range map[string]bool{
			"-out":           *out != "",
			"-module":        *module != "",
			"-skip-baseline": *skipBaseline,
			"-measure":       *measure,
		} {
			if set {
				return cli.ExitFailure, fmt.Errorf("%s is local-only (the server owns its trees and reports deterministically)", flagName)
			}
		}
		return client.RunJob(ctx, *server, *token, "farepair", spec, "")
	}

	// Local runs keep calling repair.Run directly: the tree flags above
	// are local-only, so a repair job spec cannot carry them.
	opts, err := spec.Options()
	if err != nil {
		return cli.ExitFailure, err
	}
	report, err := repair.Run(ctx, repair.Config{
		App:          *appName,
		WorkDir:      *out,
		ModuleRoot:   *module,
		SkipBaseline: *skipBaseline,
		Measure:      *measure,
		Options:      opts,
	})
	if err != nil {
		return cli.ExitFailure, err
	}
	fmt.Print(report.Render())
	if *out != "" {
		fmt.Fprintf(os.Stderr, "farepair: trees kept under %s (original/, repaired/)\n", *out)
	}
	return report.ExitCode(), nil
}
