package cli

import (
	"context"
	"fmt"
	"strings"

	"failatomic/internal/apps"
	"failatomic/internal/concur"
	"failatomic/internal/detect"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
)

// CampaignReport renders everything a finished single-app detection
// campaign reports: nondeterminism warnings, the quarantine summary, the
// per-method classification, and the §4.3 masking verification (wrap plan
// + re-campaign with the planned set wrapped). Both fadetect's local mode
// and the faserve job runner produce their output through this function,
// which is what makes a server-side report byte-identical to a local run.
//
// The returned int is the exit-code-equivalent (ExitOK or
// ExitQuarantined); campaign failures — including cancellation of the
// verification re-campaign — surface as an error alongside the partial
// report rendered so far.
func CampaignReport(ctx context.Context, app apps.App, opts inject.Options, res *harness.AppResult) (string, int, error) {
	var b strings.Builder
	for _, w := range res.Result.Warnings {
		fmt.Fprintln(&b, "warning:", w)
	}
	if len(res.Result.Quarantined) > 0 {
		b.WriteString(RenderQuarantine(app.Name, res.Result.Quarantined))
	}
	s := res.Summary
	fmt.Fprintf(&b, "%s (%s): %d classes, %d methods, %d injections\n",
		app.Name, app.Lang, s.Classes, s.Methods, res.Result.Injections)
	fmt.Fprintf(&b, "methods: %d atomic, %d conditional, %d pure failure non-atomic\n\n",
		s.AtomicMethods, s.ConditionalMethods, s.PureMethods)
	for _, mn := range res.Classification.Names() {
		rep := res.Classification.Methods[mn]
		fmt.Fprintf(&b, "%-36s %-32s calls=%-5d", mn, rep.Classification, rep.Calls)
		if rep.SampleDiff != "" {
			fmt.Fprintf(&b, " e.g. %s", rep.SampleDiff)
		}
		fmt.Fprintln(&b)
	}
	b.WriteString(RenderStrategySection(res.Result, res.Classification,
		detect.Options{ExceptionFree: opts.ExceptionFree}))
	code := ExitOK
	if len(res.Result.Quarantined) > 0 {
		code = ExitQuarantined
	}
	na := res.Classification.NonAtomicMethods()
	if len(na) == 0 {
		return b.String(), code, nil
	}

	// §4.3: compute the wrap plan (pure methods only — conditional ones
	// become atomic for free) and verify it by re-running the campaign
	// with exactly the planned set wrapped.
	plan := mask.Build(res.Classification, nil, mask.Policy{})
	fmt.Fprintln(&b)
	b.WriteString(plan.Render())
	fmt.Fprintf(&b, "\nverifying masking phase: re-running campaign with %d methods wrapped...\n",
		len(plan.Wrap))
	maskOpts := opts
	maskOpts.Mask = plan.WrapSet()
	maskOpts.OnRun = nil
	maskOpts.Completed = nil
	// The verification re-campaign checks the paper's §4.3 property — the
	// wrap plan is built from the baseline classification, so it is judged
	// under the baseline fault model; re-running the perturbation grids
	// here would re-flag methods the plan never claimed to mask.
	maskOpts.Perturbations = nil
	masked, err := inject.Campaign(ctx, app.Build(), maskOpts)
	if err != nil {
		return b.String(), ExitFailure, err
	}
	cls := detect.Classify(masked, detect.Options{})
	remaining := cls.NonAtomicMethods()
	if len(remaining) == 0 {
		fmt.Fprintln(&b, "all methods failure atomic in the corrected program")
	} else {
		fmt.Fprintf(&b, "STILL NON-ATOMIC (checkpoint gaps): %v\n", remaining)
		for _, m := range remaining {
			fmt.Fprintf(&b, "  %s: %s\n", m, cls.Methods[m].SampleDiff)
		}
	}
	return b.String(), code, nil
}

// ConcurReport renders a finished schedule campaign the way
// CampaignReport renders a detection campaign: the quarantine summary
// ahead of the report section, and the matching exit code.
func ConcurReport(res *concur.Result) (string, int) {
	q := res.Inject.Quarantined
	if len(q) == 0 {
		return res.Report, ExitOK
	}
	return RenderQuarantine(res.Inject.Program.Name, q) + res.Report, ExitQuarantined
}

// RenderStrategySection renders the per-perturbation-model report block:
// one summary line per strategy, then only the methods whose verdict
// differs from the baseline (default first-activation) classification —
// the flips the richer fault model exposed. Empty for perturbation-free
// campaigns, keeping their reports byte-identical to the old format.
func RenderStrategySection(res *inject.Result, baseline *detect.Classification, dopts detect.Options) string {
	strategies := detect.Strategies(res)
	if len(strategies) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintln(&b, "\nperturbation models:")
	for _, st := range strategies {
		cls := detect.ClassifyStrategy(res, dopts, st)
		sum := detect.Summarize(cls)
		runs, injections := detect.StrategyRuns(res, st)
		fmt.Fprintf(&b, "[%s] %d runs, %d injections; methods: %d atomic, %d conditional, %d pure failure non-atomic\n",
			st, runs, injections, sum.AtomicMethods, sum.ConditionalMethods, sum.PureMethods)
		for _, mn := range cls.Names() {
			rep := cls.Methods[mn]
			base := baseline.Methods[mn]
			if base != nil && base.Classification == rep.Classification {
				continue
			}
			baseClass := "unobserved"
			if base != nil {
				baseClass = base.Classification.String()
			}
			fmt.Fprintf(&b, "  %-34s %-32s baseline: %s", mn, rep.Classification, baseClass)
			if rep.SampleDiff != "" {
				fmt.Fprintf(&b, " e.g. %s", rep.SampleDiff)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
