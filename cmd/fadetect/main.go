// Command fadetect runs the paper's detection-phase evaluation: the
// exception-injection campaigns over the sixteen bundled applications,
// printing Table 1 and Figures 2–4, plus the §6.1 LinkedList repair
// experiment.
//
// Usage:
//
//	fadetect                 # Table 1 + Figures 2-4 + repair experiment
//	fadetect -app LinkedList # one application, with per-method detail
//	fadetect -lang cpp       # restrict to one evaluation group
//	fadetect -parallel 0     # explore campaigns on all CPUs (0 = GOMAXPROCS)
//	fadetect -app X -run-timeout 2s -retries 2   # supervised campaign
//	fadetect -app X -log x.json -resume          # resume after a crash/kill
//	fadetect -server http://host:8080 -app X     # run the campaign on a faserve instance
//	fadetect -server URL -app X -priority high   # jump the fair-share queue
//	fadetect -server URL -list -list-state done  # page the server's job index
//	fadetect -app LinkedList -concur workers=4,sched=64 -seed 1
//	                         # concurrent schedule campaign (linearization check)
//
// SIGINT/SIGTERM interrupt the campaign cleanly: completed runs are
// already journaled (with -log) and the process exits nonzero; rerunning
// with -resume skips the journaled points and produces a final log
// byte-identical to an uninterrupted run.
//
// With -server the campaign runs remotely: the job is submitted to a
// faserve instance, progress is followed over SSE, and the stored report
// (and, with -log, the stored injection log) is printed byte-identical
// to what the same local invocation would produce — the server renders
// through the same code path.
//
// Exit codes: 0 success, 1 failure (including interruption), 2 campaign
// completed but quarantined at least one injection point.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/repair"
	"failatomic/internal/replog"
	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fadetect:", err)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("fadetect", flag.ContinueOnError)
	var (
		appName   = fs.String("app", "", "run a single application and print per-method detail")
		lang      = fs.String("lang", "", `restrict to one group: "cpp" or "java"`)
		repairExp = fs.Bool("repair", true, "run the §6.1 LinkedList repair experiment (deprecated alias: the experiment now lives in the farepair workflow; output is unchanged)")
		logPath   = fs.String("log", "", "with -app: also write the raw injection log (for fareport); completed runs stream to <log>.journal as the campaign progresses")
		resume    = fs.Bool("resume", false, "with -log: recover <log>.journal from a crashed or killed campaign and skip its completed points")
		server    = fs.String("server", "", "submit the campaign to a faserve instance at this URL instead of running locally (requires -app)")
		token     = fs.String("token", os.Getenv("FASERVE_TOKEN"), "with -server: bearer token for an authed faserve (default $FASERVE_TOKEN)")
		list      = fs.Bool("list", false, "with -server: page through the server's job index instead of submitting")
		listKind  = fs.String("list-kind", "", `with -list: filter by job kind ("detect", "repair" or "concur")`)
		listState = fs.String("list-state", "", `with -list: filter by state (e.g. "done", "failed", "queued")`)
		listToken = fs.String("list-token", "", "with -list: filter by tenant name")
		listLimit = fs.Int("list-limit", 0, "with -list: page size (0 = server default)")
		concurFlg = fs.String("concur", "", `with -app: run the concurrent schedule campaign instead of the single-threaded one; value is "workers=N,sched=M" (each key optional, e.g. "workers=4,sched=64")`)
		seed      = fs.Int64("seed", concur.DefaultSeed, "with -concur: campaign seed selecting the schedule plan; a -resume journal recorded under a different seed is rejected")
		spec      serve.JobSpec
	)
	fs.StringVar(&spec.Priority, "priority", "", `with -server: scheduling class ("low", "normal" or "high"; default normal)`)
	fs.IntVar(&spec.Repeats, "repeat", 1, "run each workload N times per injection run (scales #Injections; cost grows quadratically)")
	fs.IntVar(&spec.Parallelism, "parallel", 1, "campaign worker goroutines per app (1 = sequential, 0 = GOMAXPROCS); output is identical either way")
	fs.DurationVar(&spec.RunTimeout, "run-timeout", 0, "per-run watchdog: abandon an injection run after this long and quarantine the point (0 = off)")
	fs.IntVar(&spec.MaxRetries, "retries", 0, "retry a hung or crashed injection run this many times before quarantining it")
	fs.IntVar(&spec.MaxQuarantined, "max-quarantined", 0, "fail the campaign when more than this many points are quarantined (0 = unlimited)")
	fs.StringVar(&spec.Perturb, "perturb", "", `extra fault strategies on top of the first-activation sweep: comma-separated "nth[=N]", "burst[=budget]", "defer", "oblivious" (e.g. "nth=3,burst,oblivious")`)
	if err := fs.Parse(args); err != nil {
		return cli.ExitFailure, err
	}
	if *lang != "" && *lang != "cpp" && *lang != "java" {
		return cli.ExitFailure, fmt.Errorf(`-lang %q: want "cpp" or "java" (or omit it for both groups)`, *lang)
	}
	if spec.Parallelism == 0 {
		spec.Parallelism = runtime.GOMAXPROCS(0)
	}
	spec.App = *appName
	seedSet, listFlag := false, ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "list-kind", "list-state", "list-token", "list-limit":
			listFlag = f.Name
		}
	})
	if seedSet && *concurFlg == "" {
		return cli.ExitFailure, fmt.Errorf("-seed requires -concur (only schedule campaigns are seeded)")
	}
	if listFlag != "" && !*list {
		return cli.ExitFailure, fmt.Errorf("-%s requires -list (it applies only to the server's job index query)", listFlag)
	}
	if *lang != "" && (*appName != "" || *list) {
		return cli.ExitFailure, fmt.Errorf("-lang filters the full evaluation; it cannot be combined with -app or -list")
	}
	if *concurFlg != "" {
		if *appName == "" {
			return cli.ExitFailure, fmt.Errorf("-concur requires -app (have: %v)", concur.Names())
		}
		sp, err := concur.ParseSpec(*concurFlg)
		if err != nil {
			return cli.ExitFailure, err
		}
		// The campaign knobs carry over; validation rejects the ones a
		// schedule campaign has no use for (-perturb, -repeat > 1).
		spec.Kind = serve.KindConcur
		spec.Workers, spec.Schedules = sp.Workers, sp.Schedules
		spec.Seed = concur.EffectiveSeed(*seed)
	}
	if *resume && *logPath == "" {
		return cli.ExitFailure, fmt.Errorf("-resume requires -log")
	}
	if *logPath != "" && *appName == "" {
		return cli.ExitFailure, fmt.Errorf("-log requires -app")
	}
	if *list {
		if *server == "" {
			return cli.ExitFailure, fmt.Errorf("-list requires -server (it pages the service's job index)")
		}
		return runList(ctx, *server, *token, serve.ListQuery{
			Token: *listToken, Kind: *listKind, State: *listState, Limit: *listLimit,
		})
	}
	if spec.Priority != "" && *server == "" {
		return cli.ExitFailure, fmt.Errorf("-priority requires -server (only the service schedules by class)")
	}
	if *server != "" {
		if *appName == "" {
			return cli.ExitFailure, fmt.Errorf("-server requires -app (the service runs single-app campaigns)")
		}
		if *resume {
			return cli.ExitFailure, fmt.Errorf("-resume is local-only: the server resumes its own journals")
		}
		return client.RunJob(ctx, *server, *token, "fadetect", spec, *logPath)
	}
	if *appName != "" {
		return runLocal(ctx, spec, *logPath, *resume)
	}

	allOpts, err := spec.Options()
	if err != nil {
		return cli.ExitFailure, err
	}
	results, err := harness.RunAllWithOptions(ctx, *lang, allOpts)
	if err != nil {
		return cli.ExitFailure, err
	}
	fmt.Print(harness.RenderTable1(harness.Table1(results)))
	fmt.Println()
	printGroup := func(group, label string) {
		rows := harness.MethodFigure(results, group, false)
		if len(rows) == 0 {
			return
		}
		fmt.Print(harness.RenderFigure(
			fmt.Sprintf("Figure %s(a): %s method classification (%% of methods defined and used)", label, group), rows))
		fmt.Printf("mean pure non-atomic: %.1f%% of methods\n\n", harness.MeanPure(rows))
		weighted := harness.MethodFigure(results, group, true)
		fmt.Print(harness.RenderFigure(
			fmt.Sprintf("Figure %s(b): %s method classification (%% of method calls)", label, group), weighted))
		fmt.Printf("mean pure non-atomic: %.1f%% of calls\n\n", harness.MeanPure(weighted))
		classes := harness.ClassFigure(results, group)
		fmt.Print(harness.RenderFigure(
			fmt.Sprintf("Figure 4 (%s): class distribution", group), classes))
		fmt.Println()
	}
	if *lang == "" || *lang == "cpp" {
		printGroup("cpp", "2")
	}
	if *lang == "" || *lang == "java" {
		printGroup("java", "3")
	}

	if *repairExp && (*lang == "" || *lang == "java") {
		out, err := repair.Experiment(ctx)
		if err != nil {
			return cli.ExitFailure, err
		}
		fmt.Print(out)
	}

	code := cli.ExitOK
	for _, r := range results {
		if len(r.Result.Quarantined) > 0 {
			fmt.Println()
			fmt.Print(cli.RenderQuarantine(r.App.Name, r.Result.Quarantined))
			code = cli.ExitQuarantined
		}
	}
	return code, nil
}

// runLocal runs one job in-process through serve's kind table — the
// code path faserve and faworker run it on, which is what makes -server
// output byte-identical. With -log, every completed run streams to a
// journal (seeded for schedule campaigns) so a crashed or killed campaign
// can resume instead of starting over.
func runLocal(ctx context.Context, spec serve.JobSpec, logPath string, resume bool) (int, error) {
	if err := spec.Validate(); err != nil {
		return cli.ExitFailure, err
	}
	var completed map[inject.RunKey]inject.Run
	var journal *replog.Journal
	var onRun func(inject.Run) error
	journalPath := logPath + ".journal"
	if logPath != "" {
		program, lang, seed := spec.JournalIdentity()
		var err error
		if resume {
			completed, journal, err = replog.ResumeJournalSeeded(journalPath, program, lang, seed)
			if err != nil {
				return cli.ExitFailure, err
			}
			if len(completed) > 0 {
				fmt.Printf("resuming: %d journaled runs recovered from %s\n", len(completed), journalPath)
			}
		} else if journal, err = replog.CreateJournalSeeded(journalPath, program, lang, seed); err != nil {
			return cli.ExitFailure, err
		}
		onRun = journal.Append
	}

	out, err := spec.Run(ctx, completed, onRun)
	if journal != nil {
		if cerr := journal.Close(); err == nil {
			err = cerr
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w (completed runs journaled in %s; rerun with -resume)", err, journalPath)
		}
	}
	if err != nil {
		return cli.ExitFailure, err
	}
	if logPath != "" {
		data, err := out.Log()
		if err != nil {
			return cli.ExitFailure, err
		}
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			return cli.ExitFailure, err
		}
		os.Remove(journalPath)
		fmt.Printf("injection log written to %s\n", logPath)
	}
	fmt.Print(out.Report)
	return out.ExitCode, nil
}

// runList pages through the server's job index, printing one
// tab-separated line per job: id, state, kind, app, tenant, priority,
// exit code. It follows NextCursor until the index is exhausted, so the
// output is the full filtered index regardless of page size.
func runList(ctx context.Context, base, token string, q serve.ListQuery) (int, error) {
	var opts []client.Option
	if token != "" {
		opts = append(opts, client.WithToken(token))
	}
	c := client.New(base, opts...)
	for {
		page, err := c.List(ctx, q)
		if err != nil {
			return cli.ExitFailure, err
		}
		for _, st := range page.Jobs {
			tenant := st.Token
			if tenant == "" {
				tenant = "default"
			}
			prio := st.Spec.Priority
			if prio == "" {
				prio = "normal"
			}
			fmt.Printf("%s\t%s\t%s\t%s\t%s\t%s\t%d\n",
				st.ID, st.State, st.Spec.JobKind(), st.Spec.App, tenant, prio, st.ExitCode)
		}
		if page.NextCursor == "" {
			return cli.ExitOK, nil
		}
		q.Cursor = page.NextCursor
	}
}
