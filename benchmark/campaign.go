package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/detect"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
	"failatomic/internal/repair"
	"failatomic/internal/replog"
)

// heavyApps are the campaign-heavy apps: the Java apps whose Repeats=2
// campaigns cost the most, and replay the largest share of their runs.
var heavyApps = []string{"RegExp", "RBMap", "RBTree", "HashedMap"}

const heavyRepeats = 2

// warmupApp is the small campaign both campaign workloads warm up with.
const warmupApp = "LinkedList"

func allAppNames() []string {
	var names []string
	for _, app := range apps.All() {
		names = append(names, app.Name)
	}
	return names
}

func appsByName(names []string) []apps.App {
	out := make([]apps.App, 0, len(names))
	for _, name := range names {
		app, ok := apps.ByName(name)
		if !ok {
			panic("benchmark: unknown app " + name)
		}
		out = append(out, app)
	}
	return out
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// timing is an operation's wall time, less the reference slices taken
// during it; the mean time of those slices and the ones just before; and
// the time all its slices took.
type timing struct {
	dur, ref, probes time.Duration
}

// campaign runs one app campaign the way `fadetect -app NAME -repeat N
// -log F` does: every run is journaled, the campaign runs and is
// classified, the final log is written, and the report renders through
// cli.CampaignReport, which re-runs the campaign with the §4.3 wrap plan
// to verify masking. Report and log must match the committed digests.
func (b *bench) campaign(app apps.App, repeats int, tr *tracer, req string) (timing, *harness.AppResult, error) {
	logPath := filepath.Join(b.dir, app.Name+".json")
	journalPath := logPath + ".journal"
	defer os.Remove(logPath)
	defer os.Remove(journalPath)
	opts := inject.Options{Repeats: repeats, Parallelism: 1}

	p := newProber(3)
	before := p.total
	start := time.Now()
	op := tr.begin(0, req, "bench.op")
	sp := tr.begin(op, req, "replog.create")
	journal, err := replog.CreateJournal(journalPath, app.Name, app.Lang)
	tr.end(sp)
	if err != nil {
		return timing{}, nil, err
	}
	runOpts := opts
	var res *harness.AppResult
	if tr == nil {
		runOpts.OnRun = probed(p, journal.Append)
		res, err = harness.RunApp(b.ctx, app, runOpts)
	} else {
		runOpts.OnRun = journal.Append
		res, err = tracedRunApp(b, tr, op, req, app, runOpts, p)
	}
	if err != nil {
		journal.Close()
		return timing{}, nil, err
	}
	sp = tr.begin(op, req, "replog.close")
	err = journal.Close()
	tr.end(sp)
	if err != nil {
		return timing{}, nil, err
	}
	sp = tr.begin(op, req, "replog.write")
	logSum := sha256.New()
	err = writeLog(logPath, logSum, res.Result)
	tr.end(sp)
	if err != nil {
		return timing{}, nil, err
	}
	sp = tr.begin(op, req, "cli.report")
	report, _, err := cli.CampaignReport(b.ctx, app, opts, res)
	tr.end(sp)
	tr.end(op)
	t := timing{dur: time.Since(start) - (p.total - before), ref: b.noteRef(p.ref()), probes: p.total}
	if err != nil {
		return t, nil, err
	}

	key := fmt.Sprintf("campaign/%s/r%d", app.Name, repeats)
	if err := b.check(key+"/report", sha([]byte(report))); err != nil {
		return t, nil, err
	}
	if err := b.check(key+"/log", hex.EncodeToString(logSum.Sum(nil))); err != nil {
		return t, nil, err
	}
	if tr != nil {
		b.acc["ops"]++
		b.countCampaign(res)
		b.acc["wrap_methods"] += float64(len(mask.Build(res.Classification, nil, mask.Policy{}).Wrap))
		b.acc["wrap_plans"]++
	}
	return t, res, nil
}

// writeLog writes the final injection log to path, as fadetect -log does,
// copying the bytes to also.
func writeLog(path string, also io.Writer, res *inject.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := replog.Write(io.MultiWriter(f, also), res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probed adds the prober's sampling to a run callback (next may be nil).
func probed(p *prober, next func(inject.Run) error) func(inject.Run) error {
	return func(r inject.Run) error {
		var err error
		if next != nil {
			err = next(r)
		}
		p.sample()
		return err
	}
}

// tracedRunApp is harness.RunApp split into its two calls, so the
// campaign and the classification each get a span. Its run callback
// records the interval between consecutive runs as an inject.run span
// and each reference slice as a bench.probe span.
func tracedRunApp(b *bench, tr *tracer, parent int, req string, app apps.App, opts inject.Options, p *prober) (*harness.AppResult, error) {
	camp := tr.begin(parent, req, "inject.campaign")
	last := time.Now()
	onRun := opts.OnRun
	opts.OnRun = func(r inject.Run) error {
		tr.add(camp, req, "inject.run", last, time.Now())
		var err error
		if onRun != nil {
			sp := tr.begin(camp, req, "replog.append")
			err = onRun(r)
			tr.end(sp)
		}
		if d := p.sample(); d > 0 {
			now := time.Now()
			tr.add(camp, req, "bench.probe", now.Add(-d), now)
		}
		last = time.Now()
		return err
	}
	res, err := inject.Campaign(b.ctx, app.Build(), opts)
	tr.end(camp)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", app.Name, err)
	}
	sp := tr.begin(parent, req, "detect.classify")
	cls := detect.Classify(res, detect.Options{ExceptionFree: opts.ExceptionFree})
	sum := detect.Summarize(cls)
	tr.end(sp)
	return &harness.AppResult{App: app, Result: res, Classification: cls, Summary: sum}, nil
}

// countCampaign adds one traced campaign's runs, replayed runs and
// fingerprint-cache counters to the per-layer counts.
func (b *bench) countCampaign(res *harness.AppResult) {
	r := res.Result
	b.acc["runs"] += float64(len(r.Runs))
	for _, run := range r.Runs {
		// A fingerprint-mode run is replayed in capture mode exactly when
		// it recorded a non-atomic mark (the replay fills in the diff).
		for _, m := range run.Marks {
			if !m.Atomic {
				b.acc["replay_runs"]++
				break
			}
		}
	}
	b.acc["cache_hits"] += float64(r.SnapshotCache.Hits)
	b.acc["cache_misses"] += float64(r.SnapshotCache.Misses)
	b.acc["cache_bytes"] += float64(r.SnapshotCache.Bytes)
	b.table["inject.runs_per_campaign."+res.App.Name] = float64(len(r.Runs))
}

// warmUp runs the untimed warm-up campaign of a set-up.
func (b *bench) warmUp(repeats int) error {
	app, _ := apps.ByName(warmupApp)
	_, _, err := b.campaign(app, repeats, nil, "setup")
	return err
}

// runCampaignHeavy cycles the heavy apps at Repeats=2, in a seeded order
// per cycle, one campaign at a time.
func runCampaignHeavy(b *bench) error {
	if _, err := setUp(b, func() (struct{}, error) { return struct{}{}, b.warmUp(heavyRepeats) }, func(struct{}) {}); err != nil {
		return err
	}
	list := appsByName(heavyApps)
	return b.closedLoop(func(k int) error {
		for j, i := range b.rng.Perm(len(list)) {
			app := list[i]
			bare, err := bareRuns(list[i : i+1])
			if err != nil {
				return err
			}
			tr := b.tracerFor(k, j)
			b.attempted++
			b.late(b.prevEnd)
			cpu := cpuTime()
			t, res, err := b.campaign(app, heavyRepeats, tr, fmt.Sprintf("c%d.%s", k, app.Name))
			b.prevEnd = time.Now()
			if err != nil {
				b.fail("campaign %s: %v", app.Name, err)
				continue
			}
			runs := len(res.Result.Runs)
			b.samples = append(b.samples, sample{item: app.Name, dur: t.dur, ref: t.ref, cpu: cpuTime() - cpu - t.probes,
				bare: time.Duration(runs*heavyRepeats) * bare[0], traced: tr != nil})
		}
		return nil
	})
}

// evaluation runs the default fadetect evaluation — every app at
// Repeats=1, Table 1, Figures 2–4 and the §6.1 repair experiment — and
// checks the printed text against the committed digest.
func (b *bench) evaluation(tr *tracer, req string) (timing, []*harness.AppResult, error) {
	opts := inject.Options{Repeats: 1, Parallelism: 1}
	p := newProber(3)
	before := p.total
	start := time.Now()
	op := tr.begin(0, req, "bench.op")
	var results []*harness.AppResult
	var err error
	if tr == nil {
		opts.OnRun = probed(p, nil)
		results, err = harness.RunAllWithOptions(b.ctx, "", opts)
	} else {
		all := tr.begin(op, req, "harness.runall")
		for _, app := range apps.All() {
			var r *harness.AppResult
			if r, err = tracedRunApp(b, tr, all, req, app, opts, p); err != nil {
				break
			}
			results = append(results, r)
		}
		tr.end(all)
	}
	if err != nil {
		return timing{}, nil, err
	}
	sp := tr.begin(op, req, "harness.render")
	text := renderEvaluation(results)
	tr.end(sp)
	sp = tr.begin(op, req, "repair.experiment")
	rep, err := repair.Experiment(b.ctx)
	tr.end(sp)
	tr.end(op)
	t := timing{dur: time.Since(start) - (p.total - before), ref: b.noteRef(p.ref()), probes: p.total}
	if err != nil {
		return t, nil, err
	}
	if err := b.check("evaluation", sha([]byte(text+rep))); err != nil {
		return t, nil, err
	}
	if tr != nil {
		b.acc["ops"]++
		for _, r := range results {
			b.countCampaign(r)
		}
	}
	return t, results, nil
}

// renderEvaluation prints the tables and figures exactly as fadetect does
// with no flags.
func renderEvaluation(results []*harness.AppResult) string {
	var s strings.Builder
	s.WriteString(harness.RenderTable1(harness.Table1(results)))
	s.WriteString("\n")
	for _, g := range []struct{ group, label string }{{"cpp", "2"}, {"java", "3"}} {
		rows := harness.MethodFigure(results, g.group, false)
		if len(rows) == 0 {
			continue
		}
		s.WriteString(harness.RenderFigure(
			fmt.Sprintf("Figure %s(a): %s method classification (%% of methods defined and used)", g.label, g.group), rows))
		fmt.Fprintf(&s, "mean pure non-atomic: %.1f%% of methods\n\n", harness.MeanPure(rows))
		weighted := harness.MethodFigure(results, g.group, true)
		s.WriteString(harness.RenderFigure(
			fmt.Sprintf("Figure %s(b): %s method classification (%% of method calls)", g.label, g.group), weighted))
		fmt.Fprintf(&s, "mean pure non-atomic: %.1f%% of calls\n\n", harness.MeanPure(weighted))
		s.WriteString(harness.RenderFigure(fmt.Sprintf("Figure 4 (%s): class distribution", g.group),
			harness.ClassFigure(results, g.group)))
		s.WriteString("\n")
	}
	return s.String()
}

// runEvalSuite repeats the full evaluation. Its inputs are the paper's
// fixed evaluation, so it does not use the seed.
func runEvalSuite(b *bench) error {
	if _, err := setUp(b, func() (struct{}, error) { return struct{}{}, b.warmUp(1) }, func(struct{}) {}); err != nil {
		return err
	}
	list := apps.All()
	return b.closedLoop(func(k int) error {
		bare, err := bareRuns(list)
		if err != nil {
			return err
		}
		tr := b.tracerFor(k, 0)
		b.attempted++
		b.late(b.prevEnd)
		cpu := cpuTime()
		t, results, err := b.evaluation(tr, fmt.Sprintf("e%d", k))
		b.prevEnd = time.Now()
		cpu = cpuTime() - cpu - t.probes
		if err != nil {
			b.fail("evaluation: %v", err)
			return nil
		}
		var bareTotal time.Duration
		for i, r := range results { // results keep apps.All() order
			bareTotal += time.Duration(len(r.Result.Runs)) * bare[i]
		}
		b.samples = append(b.samples, sample{item: "evaluation", dur: t.dur, ref: t.ref, cpu: cpu,
			bare: bareTotal, traced: tr != nil})
		return nil
	})
}
