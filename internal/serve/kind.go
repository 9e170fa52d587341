package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"failatomic/internal/apps"
	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/detect"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/repair"
	"failatomic/internal/replog"
	"failatomic/internal/sched"
)

// The kind table: each job kind is written once, here, and every host
// dispatches through it — admission and crontab installs (Validate), boot
// recovery and lease grants (Validate, JournalIdentity), the in-process
// pool, faworker, and a local fadetect -app / -concur run (Run). Local,
// server and worker output are byte-identical because they are one code
// path, not three that tests keep in step.

// Outcome is one finished job as every host consumes it.
type Outcome struct {
	// Result is the campaign the job's log is written from: the detect
	// campaign, a repair job's phase-1 campaign, or a concur job's
	// schedule runs.
	Result *inject.Result
	// Report is the rendered report, byte-identical to the local CLI's.
	Report string
	// ExitCode is the exit-code equivalent of the local CLI run.
	ExitCode int
	// Classification is the fresh classification the drift gate compares
	// against the spec's last done run; nil for kinds the gate skips.
	Classification *detect.Classification
}

// Log renders the outcome's injection log (replog JSON lines).
func (o Outcome) Log() ([]byte, error) {
	var b bytes.Buffer
	if err := replog.Write(&b, o.Result); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// kind is one job kind's implementation.
type kind struct {
	// validate runs the kind's own admission checks: the app names
	// something this kind can run, and no knob of another kind is set.
	validate func(JobSpec) error
	// identity names the job's journal: program, language and seed
	// (0 for the unseeded kinds).
	identity func(JobSpec) (program, lang string, seed int64)
	// run executes the job, splicing completed runs and streaming every
	// fresh run to onRun.
	run func(ctx context.Context, sp JobSpec, completed map[inject.RunKey]inject.Run, onRun func(inject.Run) error) (Outcome, error)
	// gated kinds pass the drift gate: their Outcome carries a
	// Classification, and a worker's uploaded log is classified instead.
	gated bool
}

var kinds = map[string]kind{
	KindDetect: {
		validate: validateTable1App,
		identity: table1Identity,
		run: func(ctx context.Context, sp JobSpec, completed map[inject.RunKey]inject.Run, onRun func(inject.Run) error) (Outcome, error) {
			app, _ := apps.ByName(sp.App)
			opts, err := sp.campaignOptions(completed, onRun)
			if err != nil {
				return Outcome{}, err
			}
			res, err := harness.RunApp(ctx, app, opts)
			if err != nil {
				return Outcome{}, err
			}
			report, code, err := cli.CampaignReport(ctx, app, opts, res)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Result: res.Result, Report: report, ExitCode: code, Classification: res.Classification}, nil
		},
		gated: true,
	},
	KindRepair: {
		validate: func(sp JobSpec) error {
			if err := validateTable1App(sp); err != nil {
				return err
			}
			if !repair.SupportedApp(sp.App) {
				return fmt.Errorf("application %q has no repair source tree", sp.App)
			}
			return nil
		},
		identity: table1Identity,
		// The repair workflow threads the journal hooks through its
		// phase-1 campaign, so a repair job resumes exactly like a detect
		// job; that campaign is the job's log. Its report embeds its own
		// verification, so the drift gate skips it.
		run: func(ctx context.Context, sp JobSpec, completed map[inject.RunKey]inject.Run, onRun func(inject.Run) error) (Outcome, error) {
			opts, err := sp.campaignOptions(completed, onRun)
			if err != nil {
				return Outcome{}, err
			}
			rep, err := repair.Run(ctx, repair.Config{App: sp.App, Options: opts})
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Result: rep.Campaign, Report: rep.Render(), ExitCode: rep.ExitCode()}, nil
		},
	},
	KindConcur: {
		// A concur job's app names a concurrent target, not a Table 1 row,
		// and its schedule plan is its fault strategy.
		validate: func(sp JobSpec) error {
			if _, ok := concur.ByName(sp.App); !ok {
				return fmt.Errorf("unknown concurrent target %q (have: %v)", sp.App, concur.Names())
			}
			if err := sp.concurSpec().Validate(); err != nil {
				return err
			}
			if sp.Perturb != "" {
				return errors.New("perturb does not apply to concur jobs (the schedule plan is the fault strategy)")
			}
			if sp.Repeats > 1 {
				return errors.New("repeats does not apply to concur jobs (each schedule runs its scripts once)")
			}
			return nil
		},
		identity: func(sp JobSpec) (string, string, int64) {
			t, _ := concur.ByName(sp.App)
			return t.Name, t.Lang, concur.EffectiveSeed(sp.Seed)
		},
		run: func(ctx context.Context, sp JobSpec, completed map[inject.RunKey]inject.Run, onRun func(inject.Run) error) (Outcome, error) {
			t, _ := concur.ByName(sp.App)
			opts, err := sp.campaignOptions(completed, onRun)
			if err != nil {
				return Outcome{}, err
			}
			res, err := concur.Campaign(ctx, &t, concur.Options{
				Workers:   sp.Workers,
				Schedules: sp.Schedules,
				Seed:      concur.EffectiveSeed(sp.Seed),
				Campaign:  opts,
			})
			if err != nil {
				return Outcome{}, err
			}
			report, code := cli.ConcurReport(res)
			return Outcome{Result: res.Inject, Report: report, ExitCode: code}, nil
		},
	},
}

// validateTable1App is the app check of the kinds that run a Table 1
// application.
func validateTable1App(sp JobSpec) error {
	if _, ok := apps.ByName(sp.App); !ok {
		return fmt.Errorf("unknown application %q (have: %v)", sp.App, apps.Names())
	}
	if sp.Workers != 0 || sp.Schedules != 0 || sp.Seed != 0 {
		return errors.New("workers/schedules/seed apply only to concur jobs")
	}
	return nil
}

// table1Identity is the unseeded journal identity of a Table 1 app.
func table1Identity(sp JobSpec) (string, string, int64) {
	app, _ := apps.ByName(sp.App)
	return app.Name, app.Lang, 0
}

// concurSpec resolves the schedule knobs of a concur job, zero values
// taking the concur defaults — the same resolution concur.Campaign
// applies, so admission validates exactly what will run.
func (sp JobSpec) concurSpec() concur.Spec {
	cs := concur.Spec{Workers: sp.Workers, Schedules: sp.Schedules}
	if cs.Workers == 0 {
		cs.Workers = concur.DefaultWorkers
	}
	if cs.Schedules == 0 {
		cs.Schedules = concur.DefaultSchedules
	}
	return cs
}

// kindOf looks the spec's kind up in the table.
func (sp JobSpec) kindOf() (kind, error) {
	k, ok := kinds[sp.JobKind()]
	if !ok {
		return kind{}, fmt.Errorf("unknown job kind %q (have: %q, %q, %q)", sp.Kind, KindDetect, KindRepair, KindConcur)
	}
	return k, nil
}

// Validate runs every admission check on the spec: the kind's own, then
// the campaign and scheduling knobs every kind shares. A spec that
// passes converts through Options and names its journal without error.
func (sp JobSpec) Validate() error {
	k, err := sp.kindOf()
	if err != nil {
		return err
	}
	if err := k.validate(sp); err != nil {
		return err
	}
	if _, err := sp.Options(); err != nil {
		return err
	}
	_, err = sched.ParsePriority(sp.Priority)
	return err
}

// JournalIdentity names the journal of a validated spec: the program and
// language its header records, and the schedule seed (0 for detect and
// repair), so one replog.ResumeJournalSeeded call serves every kind.
func (sp JobSpec) JournalIdentity() (program, lang string, seed int64) {
	k, err := sp.kindOf()
	if err != nil {
		return "", "", 0
	}
	return k.identity(sp)
}

// Run executes a validated spec: completed holds the journaled runs to
// splice, and onRun (nil = none) receives every freshly executed run.
func (sp JobSpec) Run(ctx context.Context, completed map[inject.RunKey]inject.Run, onRun func(inject.Run) error) (Outcome, error) {
	k, err := sp.kindOf()
	if err != nil {
		return Outcome{}, err
	}
	return k.run(ctx, sp, completed, onRun)
}

// gated reports whether the drift gate compares this spec's runs.
func (sp JobSpec) gated() bool {
	k, err := sp.kindOf()
	return err == nil && k.gated
}

// campaignOptions is Options plus the journal hooks of one execution.
func (sp JobSpec) campaignOptions(completed map[inject.RunKey]inject.Run, onRun func(inject.Run) error) (inject.Options, error) {
	opts, err := sp.Options()
	opts.Completed = completed
	opts.OnRun = onRun
	return opts, err
}
