package repair

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"failatomic/internal/apps"
	"failatomic/internal/bench"
	"failatomic/internal/detect"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
	"failatomic/internal/weave"
)

// Config tunes one repair workflow.
type Config struct {
	// App names the bundled application to repair (see SupportedApp).
	App string
	// WorkDir is where the original and repaired trees are materialized;
	// "" uses a temporary directory that is removed afterwards.
	WorkDir string
	// ModuleRoot is the failatomic module checkout the child trees build
	// against; "" walks up from the working directory.
	ModuleRoot string
	// SkipBaseline skips rebuilding the unrepaired tree (the baseline run
	// proves the tree reproduces the in-process classification before any
	// rewrite is trusted).
	SkipBaseline bool
	// Measure additionally times each strategy rung with internal/bench.
	// Timings are wall-clock and therefore non-deterministic; they render
	// after the deterministic report body.
	Measure bool
	// Options tunes the phase-1 detection campaign (and, stripped of its
	// journal hooks, the verification campaigns).
	Options inject.Options
}

// Run executes the detect → mask → verify workflow and returns its report.
// The error path is reserved for infrastructure failures (campaign errors,
// unbuildable trees, a baseline mismatch); a repair that merely leaves
// residue returns a report with Succeeded() == false.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if !SupportedApp(cfg.App) {
		return nil, fmt.Errorf("repair: no source tree for app %q", cfg.App)
	}
	app, ok := apps.ByName(cfg.App)
	if !ok {
		return nil, fmt.Errorf("repair: unknown app %q", cfg.App)
	}
	moduleRoot := cfg.ModuleRoot
	if moduleRoot == "" {
		root, err := FindModuleRoot(".")
		if err != nil {
			return nil, err
		}
		moduleRoot = root
	}

	// Phase 1: the detection campaign over the bundled application.
	phase1, err := harness.RunApp(ctx, app, cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	report := &Report{
		App:         cfg.App,
		Campaign:    phase1.Result,
		Injections:  phase1.Result.Injections,
		Quarantined: len(phase1.Result.Quarantined),
		NonAtomic:   phase1.Classification.NonAtomicMethods(),
		Pure:        phase1.Classification.PureNonAtomicMethods(),
	}

	// Phase 2: the §4.3 masking plan, with an Item-76 rung per method.
	plan := mask.Build(phase1.Classification, nil, mask.Policy{})
	report.Plan = plan

	workDir := cfg.WorkDir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "farepair-*")
		if err != nil {
			return nil, fmt.Errorf("repair: %w", err)
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	originalDir := filepath.Join(workDir, "original")
	repairedDir := filepath.Join(workDir, "repaired")
	for _, dir := range []string{originalDir, repairedDir} {
		if err := materializeTree(cfg.App, dir); err != nil {
			return nil, err
		}
		if _, err := weave.InstrumentDir(dir, weave.Options{}, false); err != nil {
			return nil, fmt.Errorf("repair: weave %s: %w", dir, err)
		}
	}

	// The analyzer's inventory of the woven original tree supplies both
	// the generated registry and the per-method strategy recommendations.
	inv, err := weave.AnalyzeDir(originalDir)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	assigns := plan.AssignStrategies(func(m string) (string, string) {
		facts := inv.Methods[m]
		if facts == nil {
			return "", ""
		}
		return facts.Strategy, facts.StrategyReason
	})

	// Phase 3: rewrite the repaired tree per assignment.
	strategies := make(map[string]string, len(assigns))
	for _, a := range assigns {
		strategies[a.Method] = a.Strategy
	}
	rewrites, err := weave.RewriteDir(repairedDir, weave.Options{}, strategies)
	if err != nil {
		return nil, err
	}
	report.Rewrites = rewrites

	// Phase 4: rebuild each tree as its own module and re-run detection in
	// a child process.
	for _, dir := range []string{originalDir, repairedDir} {
		files := map[string]string{
			"main.go":     driverSource(cfg.App),
			"registry.go": string(inv.GenerateRegistryFacade("buildRegistry", weave.Options{})),
			"go.mod":      goModSource(moduleRoot),
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				return nil, fmt.Errorf("repair: %w", err)
			}
		}
	}
	if !cfg.SkipBaseline {
		base, err := runChild(originalDir)
		if err != nil {
			return nil, err
		}
		report.BaselineChecked = true
		report.BaselinePure = base.Pure
		if !sameNames(base.Pure, report.Pure) {
			return nil, fmt.Errorf("repair: baseline mismatch: tree classifies pure %v, in-process campaign %v",
				base.Pure, report.Pure)
		}
	}
	repaired, err := runChild(repairedDir)
	if err != nil {
		return nil, err
	}
	report.VerifiedPure = repaired.Pure
	report.VerifiedNonAtomic = repaired.NonAtomic

	// Phase 5: runtime masking verification in-process — wrap the plan's
	// methods with checkpoint strategies and prove the masked campaign
	// classifies them atomic, collecting per-strategy overhead.
	maskOpts := cfg.Options
	maskOpts.OnRun = nil
	maskOpts.Completed = nil
	// As in cli.CampaignReport's re-campaign: the plan is judged under the
	// baseline fault model it was built from, and classification ignores
	// perturbation runs, which would only inflate the overhead table.
	maskOpts.Perturbations = nil
	maskOpts.Mask = plan.WrapSet()
	masked, err := harness.RunApp(ctx, app, maskOpts)
	if err != nil {
		return nil, fmt.Errorf("repair: masked campaign: %w", err)
	}
	report.MaskResidue = []string{}
	for _, m := range plan.Wrap {
		rep := masked.Classification.Methods[m]
		if rep != nil && rep.Classification != detect.ClassAtomic {
			report.MaskResidue = append(report.MaskResidue, m)
		}
	}
	report.Overhead = overheadTable(assigns, masked.Result.MaskStatTotals())

	if cfg.Measure {
		report.Bench = bench.StrategySuite()
	}
	return report, nil
}

// sameNames compares two sorted name lists.
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
