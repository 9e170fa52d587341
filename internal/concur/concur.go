// The schedule campaign: the concurrent analog of inject.Campaign. One
// fault-free pass sizes each worker's injection-point space and checks
// the harness against the model; then one execution per schedule id, each
// with a designated (worker, point) fault drawn from the schedule's
// seeded RNG — the same RNG that then drives the interleaving, so a
// schedule id plus the campaign seed replays the exact execution. Runs
// carry RunKey{Strategy: "concur", Point, Arg, Sched}, which makes
// journals, -resume splicing, chunk shipping and the drift gate compose
// unchanged with the single-threaded pipeline.
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

// Options configures a schedule campaign.
type Options struct {
	// Workers is the driver's goroutine count (DefaultWorkers when 0).
	Workers int
	// Schedules is the number of faulted schedules (DefaultSchedules when
	// 0).
	Schedules int
	// Seed selects the schedule plan (DefaultSeed when 0).
	Seed int64
	// OnRun streams every freshly executed run (journal hook); spliced
	// runs are not re-notified.
	OnRun func(inject.Run) error
	// Completed maps run keys recovered from a seeded journal to their
	// recorded runs; the campaign splices them instead of re-executing.
	Completed map[inject.RunKey]inject.Run
}

// Result is one schedule campaign's outcome.
type Result struct {
	// Target is the subject's name.
	Target string
	// Workers/Schedules/Seed are the resolved campaign parameters.
	Workers   int
	Schedules int
	Seed      int64
	// Inject is the run-level result, log-writable by replog.Write like
	// any single-threaded campaign's; its "concur" section carries Report.
	Inject *inject.Result
	// Report is the rendered concurrent-detection report section.
	Report string
}

// schedPlan is one schedule's designated fault.
type schedPlan struct {
	worker int
	point  int
}

// Campaign runs the full schedule experiment for target t. ctx is
// checked before each schedule: a cancelled campaign stops between
// schedules with ctx's error, and every schedule it completed has already
// reached OnRun, so a resume from that journal splices them.
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

	plans := make([]schedPlan, schedules+1)
	for sid := 1; sid <= schedules; sid++ {
		rng := rngFor(seed, sid)
		fw := rng.Intn(workers)
		fp := 0
		if clean.points[fw] > 0 {
			fp = 1 + rng.Intn(clean.points[fw])
		}
		plans[sid] = schedPlan{worker: fw, point: fp}
	}
	if err := validateCompleted(opts.Completed, plans, schedules); err != nil {
		return nil, err
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

	cleanRun := inject.Run{Concur: outcomeOf(clean, workers, -1, cleanVerdict, cleanWitness)}
	res.Runs = append(res.Runs, cleanRun)
	if _, journaled := opts.Completed[inject.RunKey{}]; !journaled {
		if err := notify(opts, cleanRun); err != nil {
			return nil, err
		}
	}

	for sid := 1; sid <= schedules; sid++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := plans[sid]
		key := inject.RunKey{Strategy: inject.ConcurStrategy, Point: p.point, Arg: p.worker, Sched: sid}
		if run, ok := opts.Completed[key]; ok {
			res.Runs = append(res.Runs, run)
			if run.Injected != nil {
				res.Injections++
			}
			continue
		}
		// Re-deriving the schedule RNG re-draws the planned fault, leaving
		// the stream positioned exactly where the interleaving draws
		// start — replay-identical with the planning pass.
		rng := rngFor(seed, sid)
		fw := rng.Intn(workers)
		if clean.points[fw] > 0 {
			_ = rng.Intn(clean.points[fw])
		}
		sr := runSchedule(t, rng, workers, p.worker, p.point)
		verdict, witness := verdictOf(t, sr)
		run := inject.Run{
			InjectionPoint: p.point,
			Strategy:       inject.ConcurStrategy,
			Arg:            p.worker,
			Sched:          sid,
			Injected:       sr.injected,
			Concur:         outcomeOf(sr, workers, p.worker, verdict, witness),
		}
		res.Runs = append(res.Runs, run)
		if run.Injected != nil {
			res.Injections++
		}
		if err := notify(opts, run); err != nil {
			return nil, err
		}
	}

	report := detect.RenderConcur(res, workers, schedules, seed)
	res.Sections = []inject.Section{{Name: inject.ConcurStrategy, Text: report}}
	return &Result{
		Target:    t.Name,
		Workers:   workers,
		Schedules: schedules,
		Seed:      seed,
		Inject:    res,
		Report:    report,
	}, nil
}

// validateCompleted rejects journal runs outside this campaign's schedule
// plan — the usual causes are changed workers/schedules flags or a
// journal from a different subject (a different seed is already rejected
// by the journal header).
func validateCompleted(completed map[inject.RunKey]inject.Run, plans []schedPlan, schedules int) error {
	for key := range completed {
		if key == (inject.RunKey{}) {
			continue
		}
		if key.Strategy == inject.ConcurStrategy && key.Sched >= 1 && key.Sched <= schedules {
			if p := plans[key.Sched]; p.worker == key.Arg && p.point == key.Point {
				continue
			}
		}
		return fmt.Errorf("concur: resume journal holds %s outside this campaign's schedule plan (different -concur workers/sched or -seed?) — rerun with the original flags or delete the journal", key)
	}
	return nil
}

func notify(opts Options, run inject.Run) error {
	if opts.OnRun == nil {
		return nil
	}
	if err := opts.OnRun(run); err != nil {
		return fmt.Errorf("concur: OnRun %s: %w", run.Key(), err)
	}
	return nil
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
