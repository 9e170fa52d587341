// Command benchmark measures failatomic end to end on four fixed
// workloads and, in a separate traced run, layer by layer. It drives the
// system only through the exported functions fadetect and faserve use,
// checks every output against committed digests, and prints one JSON
// object as the last line of standard output.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh                   # all workloads, one child process each
//	bash benchmark/run.sh -regen-expected   # rewrite testdata/expected.json
//
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	jsonOut  string
	work     string
	// setups is how many times a workload sets up; setup_s is their median.
	setups int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 3}
	var traceFlag int
	var regen bool
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (default: all, each in a child process): "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (app order, arrival schedule, job mix)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per workload (closed loops finish the cycle in progress)")
	fs.IntVar(&traceFlag, "trace", 0, "1: trace layer calls and print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write <dir>/<workload>.trace.json (spans and the per-layer table)")
	fs.StringVar(&cfg.jsonOut, "json", "", "also write the result object to this file")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for journals, logs and server data")
	fs.BoolVar(&regen, "regen-expected", false, "run every operation once and rewrite "+expectedPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must not be negative")
		return 2
	}
	if regen {
		if err := regenerate(ctx, cfg, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if cfg.workload == "" {
		return runAll(ctx, cfg, stdout, stderr)
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have: %s)\n", cfg.workload, workloadNames())
		return 2
	}
	want, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res, err := runWorkload(ctx, w, cfg, want, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := emit(res.output(cfg.trace), cfg.jsonOut, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// emit prints v as the last line of stdout and, when path is set, writes
// it there too.
func emit(v any, path string, stdout io.Writer) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
