// The schedule campaign: the concurrent analog of inject.Campaign. One
// fault-free pass sizes each worker's injection-point space and checks
// the harness against the model; then one execution per schedule id, each
// with a designated (worker, point) fault drawn from the schedule's
// seeded RNG — the same RNG that then drives the interleaving, so a
// schedule id plus the campaign seed replays the exact execution. Each
// schedule is one inject.Experiment with its own executor, keyed
// RunKey{Strategy: "concur", Point, Arg, Sched}, so journals, -resume
// splicing, supervision, parallel workers, chunk shipping and the drift
// gate are the single-threaded campaign's own.
package concur

import (
	"context"
	"fmt"
	"math/rand"

	"failatomic/internal/detect"
	"failatomic/internal/inject"
)

// schedSeedStride spreads schedule ids across the seed space (Fibonacci
// hashing constant) so neighboring schedules get unrelated RNG streams.
const schedSeedStride = 2654435769

// rngFor returns schedule sid's RNG. Schedule 0 is the clean pass.
func rngFor(seed int64, sid int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(sid)*schedSeedStride))
}

// plan draws schedule sid's designated fault (worker, point) from its RNG
// and returns that RNG positioned where the interleaving draws start, so
// planning and every execution of sid read the same stream. points are
// the clean pass's per-worker point counts.
func plan(seed int64, sid, workers int, points []int) (rng *rand.Rand, worker, point int) {
	rng = rngFor(seed, sid)
	worker = rng.Intn(workers)
	if points[worker] > 0 {
		point = 1 + rng.Intn(points[worker])
	}
	return rng, worker, point
}

// Options configures a schedule campaign.
type Options struct {
	// Workers is the driver's goroutine count (DefaultWorkers when 0).
	Workers int
	// Schedules is the number of faulted schedules (DefaultSchedules when
	// 0).
	Schedules int
	// Seed selects the schedule plan (DefaultSeed when 0).
	Seed int64
	// Campaign carries the knobs every campaign's sweep shares
	// (inject.Sweep): Parallelism, RunTimeout, MaxRetries,
	// MaxQuarantined, MaxRuns and the journal hooks OnRun and Completed.
	// Schedules are their own executors, so the workload knobs (Repeats,
	// Perturbations, Mask, Snapshot, ...) do not apply.
	Campaign inject.Options
}

// Result is one schedule campaign's outcome.
type Result struct {
	// Inject is the run-level result, log-writable by replog.Write like
	// any single-threaded campaign's; its "concur" section carries Report.
	Inject *inject.Result
	// Report is the rendered concurrent-detection report section.
	Report string
}

// Campaign runs the full schedule experiment for target t: the fault-free
// schedule and its model check, then every planned schedule through
// inject.Sweep, which journals, splices, supervises and parallelizes them
// like any campaign's experiments. Each schedule re-derives its RNG from
// (seed, schedule id), so the result is the same at any Parallelism and
// after any resume.
func Campaign(ctx context.Context, t *Target, opts Options) (*Result, error) {
	workers := opts.Workers
	if workers == 0 {
		workers = DefaultWorkers
	}
	schedules := opts.Schedules
	if schedules == 0 {
		schedules = DefaultSchedules
	}
	seed := EffectiveSeed(opts.Seed)
	if err := (Spec{Workers: workers, Schedules: schedules}).Validate(); err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Fault-free pass: sizes every worker's injection-point space, yields
	// the clean-call weights, and guards against model drift — a
	// fault-free schedule the model cannot explain means the harness or
	// the model is wrong, not the subject.
	clean := runSchedule(t, rngFor(seed, 0), workers, -1, 0)
	cleanVerdict, cleanWitness := verdictOf(t, clean)
	if cleanVerdict != detect.ConcurAtomic {
		return nil, fmt.Errorf("concur: the fault-free schedule of %s is not explained by the sequential model (final %s) — harness or model drift", t.Name, clean.final)
	}
	res := &inject.Result{
		Program: &inject.Program{
			Name:     t.Name,
			Lang:     t.Lang,
			Registry: t.Registry,
		},
		CleanCalls: mergeCalls(clean.calls),
	}
	for _, p := range clean.points {
		res.TotalPoints += p
	}

	exps := make([]inject.Experiment, schedules)
	for i := range exps {
		sid := i + 1
		_, fw, fp := plan(seed, sid, workers, clean.points)
		key := inject.RunKey{Strategy: inject.ConcurStrategy, Point: fp, Arg: fw, Sched: sid}
		exps[i] = inject.Experiment{Key: key, Exec: func() inject.Run {
			rng, _, _ := plan(seed, sid, workers, clean.points)
			sr := runSchedule(t, rng, workers, fw, fp)
			verdict, witness := verdictOf(t, sr)
			return inject.Run{
				InjectionPoint: fp,
				Strategy:       inject.ConcurStrategy,
				Arg:            fw,
				Sched:          sid,
				Injected:       sr.injected,
				Concur:         outcomeOf(sr, workers, fw, verdict, witness),
			}
		}}
	}
	cleanRun := inject.Run{Concur: outcomeOf(clean, workers, -1, cleanVerdict, cleanWitness)}
	if err := inject.Sweep(ctx, res, cleanRun, exps, opts.Campaign); err != nil {
		return nil, err
	}

	report := detect.RenderConcur(res, workers, schedules, seed)
	res.Sections = []inject.Section{{Name: inject.ConcurStrategy, Text: report}}
	return &Result{Inject: res, Report: report}, nil
}

// mergeCalls sums the per-worker clean-pass call counts.
func mergeCalls(perWorker []map[string]int64) map[string]int64 {
	merged := make(map[string]int64)
	for _, calls := range perWorker {
		for name, n := range calls {
			merged[name] += n
		}
	}
	return merged
}

// outcomeOf packages one scheduled execution as its wire-format record.
func outcomeOf(sr schedResult, workers, faultWorker int, verdict detect.ConcurVerdict, witness string) *inject.ConcurOutcome {
	oc := &inject.ConcurOutcome{
		Workers:     workers,
		FaultWorker: faultWorker,
		Verdict:     verdict.String(),
		Final:       sr.final,
		Witness:     witness,
	}
	if sr.faultIdx >= 0 {
		oc.FaultOp = sr.entries[sr.faultIdx].rec.Name
	}
	for _, e := range sr.entries {
		oc.History = append(oc.History, e.rec)
	}
	return oc
}
