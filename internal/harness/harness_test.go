package harness

import (
	"context"
	"strings"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/detect"
	"failatomic/internal/inject"
)

// evalResults runs the full 16-application evaluation once per test
// binary.
var evalResults []*AppResult

func results(t *testing.T) []*AppResult {
	t.Helper()
	if evalResults == nil {
		res, err := RunAll(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		evalResults = res
	}
	return evalResults
}

func TestTable1AllAppsPresent(t *testing.T) {
	rows := Table1(results(t))
	if len(rows) != 16 {
		t.Fatalf("Table 1 rows = %d, want 16", len(rows))
	}
	cpp, java := 0, 0
	for _, row := range rows {
		switch row.Lang {
		case "cpp":
			cpp++
		case "java":
			java++
		default:
			t.Fatalf("unknown group %q", row.Lang)
		}
		if row.Methods == 0 || row.Injections == 0 || row.Classes == 0 {
			t.Errorf("%s: degenerate row %+v", row.Name, row)
		}
	}
	if cpp != 6 || java != 10 {
		t.Fatalf("group split %d/%d, want 6/10", cpp, java)
	}
}

func TestTable1Render(t *testing.T) {
	out := RenderTable1(Table1(results(t)))
	for _, name := range []string{"adaptorChain", "xml2Cviasc2", "LinkedList", "RegExp", "#Injections"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 output missing %q", name)
		}
	}
}

// TestPaperShapeCppCareful checks Figure 2's headline: the Self*
// applications have a small pure non-atomic proportion.
func TestPaperShapeCppCareful(t *testing.T) {
	rows := MethodFigure(results(t), "cpp", false)
	if len(rows) != 6 {
		t.Fatalf("cpp rows = %d", len(rows))
	}
	if mean := MeanPure(rows); mean >= 15 {
		t.Errorf("cpp mean pure = %.1f%%, want < 15%% (paper: 'pretty small')", mean)
	}
	weighted := MethodFigure(results(t), "cpp", true)
	if maxCalls := MaxPure(weighted); maxCalls >= 10 {
		t.Errorf("cpp max pure calls = %.1f%%, want < 10%% (paper: < 0.4%% on their workloads)", maxCalls)
	}
}

// TestPaperShapeJavaNonAtomic checks Figure 3's headline: the Java
// applications average roughly 20% pure failure non-atomic methods.
func TestPaperShapeJavaNonAtomic(t *testing.T) {
	rows := MethodFigure(results(t), "java", false)
	if len(rows) != 10 {
		t.Fatalf("java rows = %d", len(rows))
	}
	mean := MeanPure(rows)
	if mean < 10 || mean > 35 {
		t.Errorf("java mean pure = %.1f%%, want in [10%%, 35%%] (paper: ~20%%)", mean)
	}
}

// TestPaperShapeGroupsDiffer checks the paper's central contrast: the
// carefully written C++ group has a much smaller pure fraction than the
// legacy Java group.
func TestPaperShapeGroupsDiffer(t *testing.T) {
	cpp := MeanPure(MethodFigure(results(t), "cpp", false))
	java := MeanPure(MethodFigure(results(t), "java", false))
	if cpp >= java {
		t.Errorf("cpp pure (%.1f%%) must be below java pure (%.1f%%)", cpp, java)
	}
}

// TestPaperShapeNonAtomicCalledLess checks Figure 2(b)/3(b)'s claim that
// failure non-atomic methods are called proportionally less often than
// they appear in the method population.
func TestPaperShapeNonAtomicCalledLess(t *testing.T) {
	for _, lang := range []string{"cpp", "java"} {
		byMethods := MeanPure(MethodFigure(results(t), lang, false))
		byCalls := MeanPure(MethodFigure(results(t), lang, true))
		if byCalls > byMethods {
			t.Errorf("%s: pure by calls (%.1f%%) exceeds pure by methods (%.1f%%)",
				lang, byCalls, byMethods)
		}
	}
}

// TestPaperShapeClassesSpread checks Figure 4's claim that non-atomic
// methods are not confined to a few classes.
func TestPaperShapeClassesSpread(t *testing.T) {
	javaRows := ClassFigure(results(t), "java")
	nonAtomicApps := 0
	for _, row := range javaRows {
		if row.PurePct+row.ConditionalPct >= 30 {
			nonAtomicApps++
		}
	}
	if nonAtomicApps < 7 {
		t.Errorf("only %d/10 java apps have >=30%% non-atomic classes (paper: 30-50%%)", nonAtomicApps)
	}
}

func TestRenderFigure(t *testing.T) {
	out := RenderFigure("test figure", MethodFigure(results(t), "cpp", false))
	if !strings.Contains(out, "test figure") || !strings.Contains(out, "legend") {
		t.Fatal("figure rendering incomplete")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6+3 { // 6 apps + title + header + legend
		t.Fatalf("figure has %d lines", len(lines))
	}
}

func TestMaskingEveryAppConverges(t *testing.T) {
	// The paper's end-to-end claim: wrapping every detected non-atomic
	// method yields a corrected program whose campaign finds nothing.
	for _, r := range results(t) {
		nonAtomic := r.Classification.NonAtomicMethods()
		if len(nonAtomic) == 0 {
			continue
		}
		mask := make(map[string]bool, len(nonAtomic))
		for _, m := range nonAtomic {
			mask[m] = true
		}
		masked, err := inject.Campaign(context.Background(), r.App.Build(), inject.Options{Mask: mask})
		if err != nil {
			t.Fatalf("%s: %v", r.App.Name, err)
		}
		cls := detect.Classify(masked, detect.Options{})
		if remaining := cls.NonAtomicMethods(); len(remaining) != 0 {
			t.Errorf("%s: still non-atomic after masking: %v (%s)",
				r.App.Name, remaining, cls.Methods[remaining[0]].SampleDiff)
		}
	}
}

func TestRepairExperimentShape(t *testing.T) {
	report, err := RepairExperiment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 18 -> 3 pure methods, 7.8% -> <0.2% of calls. Our list is
	// smaller; the shape must hold: a large reduction in methods and in
	// call share, with a non-empty masking remainder.
	if report.OriginalPure < 6 {
		t.Errorf("original pure = %d, want >= 6", report.OriginalPure)
	}
	if report.FixedPure >= report.OriginalPure/2 {
		t.Errorf("fixes must at least halve pure methods: %d -> %d",
			report.OriginalPure, report.FixedPure)
	}
	if report.HintedPure > report.OriginalPure {
		t.Error("hints must not increase pure methods")
	}
	if report.FixedPureCallPct >= report.OriginalPureCallPct/2 {
		t.Errorf("call share must at least halve: %.1f%% -> %.1f%%",
			report.OriginalPureCallPct, report.FixedPureCallPct)
	}
	if len(report.Remaining) == 0 {
		t.Error("the masking phase needs a remainder (RemoveAll/ReplaceAll)")
	}
	out := RenderRepair(report)
	if !strings.Contains(out, "remaining") {
		t.Fatal("render incomplete")
	}
}

func TestRunAppUnknownWorkloadErrors(t *testing.T) {
	if _, ok := apps.ByName("NoSuchApp"); ok {
		t.Fatal("ByName must reject unknown apps")
	}
}

func TestCampaignsAreModest(t *testing.T) {
	// Guard against workload growth making the evaluation unusably slow:
	// every app must stay within a small injection budget.
	for _, r := range results(t) {
		if r.Result.TotalPoints > 5000 {
			t.Errorf("%s: %d injection points; keep workloads modest",
				r.App.Name, r.Result.TotalPoints)
		}
	}
}

// TestRunAllParallelMatchesSequential is the evaluation-level determinism
// guarantee: campaigns scheduled across goroutines (apps concurrent, each
// app's points concurrent) must render Table 1 and Figures 2-4
// byte-identically to the sequential evaluation.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	seq := results(t)
	par, err := RunAllWithOptions(context.Background(), "", inject.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RenderTable1(Table1(par)), RenderTable1(Table1(seq)); got != want {
		t.Fatalf("Table 1 differs under parallel scheduling:\n%s\nvs sequential:\n%s", got, want)
	}
	for _, lang := range []string{"cpp", "java"} {
		for _, weighted := range []bool{false, true} {
			got := RenderFigure("fig", MethodFigure(par, lang, weighted))
			want := RenderFigure("fig", MethodFigure(seq, lang, weighted))
			if got != want {
				t.Fatalf("%s weighted=%v figure differs:\n%s\nvs\n%s", lang, weighted, got, want)
			}
		}
		if got, want := RenderFigure("fig", ClassFigure(par, lang)), RenderFigure("fig", ClassFigure(seq, lang)); got != want {
			t.Fatalf("%s class figure differs", lang)
		}
	}
	for i := range seq {
		if len(par[i].Result.Runs) != len(seq[i].Result.Runs) {
			t.Fatalf("%s: run counts differ", seq[i].App.Name)
		}
		for j := range seq[i].Result.Runs {
			if par[i].Result.Runs[j].InjectionPoint != seq[i].Result.Runs[j].InjectionPoint {
				t.Fatalf("%s: run ordering differs at %d", seq[i].App.Name, j)
			}
		}
	}
}
