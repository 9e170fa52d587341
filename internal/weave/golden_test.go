package weave

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenPackages are the packages whose Analyzer output the golden pins:
// the four bundled substrates and the repair pipeline's unwoven list.
var goldenPackages = []string{
	"../collections",
	"../regexplite",
	"../xmlite",
	"../selfstar",
	"../repair/testdata/linkedlist",
}

// renderAnalyzer renders everything the Analyzer infers about one package:
// every MethodFacts field, the exception-free safe list with the reasons
// the other methods were disqualified, and the CheckDir result.
func renderAnalyzer(t *testing.T, dir string) string {
	t.Helper()
	inv, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	report, err := SuggestExceptionFree(dir)
	if err != nil {
		t.Fatal(err)
	}
	missing, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (package %s, %d methods)\n", strings.TrimPrefix(dir, "../"), inv.Package, len(inv.Methods))
	for _, name := range inv.Names() {
		f := inv.Methods[name]
		fmt.Fprintf(&b, "%s class=%s ctor=%t woven=%t defer=%t file=%s direct=%v declared=%v strategy=%s reason=%q\n",
			f.Name, f.Class, f.Ctor, f.Woven, f.HasDefer, f.File, f.Direct, f.Declared, f.Strategy, f.StrategyReason)
	}
	fmt.Fprintf(&b, "exception-free (%d):%s\n", len(report.Safe), spaced(report.Safe))
	for _, name := range inv.Names() {
		if reasons := report.Reasons[name]; reasons != nil {
			fmt.Fprintf(&b, "not exception-free %s: %s\n", name, strings.Join(reasons, "; "))
		}
	}
	fmt.Fprintf(&b, "unwoven (%d):%s\n", len(missing), spaced(missing))
	return b.String()
}

// spaced renders a name list with a leading space per entry.
func spaced(names []string) string {
	var b strings.Builder
	for _, n := range names {
		b.WriteString(" " + n)
	}
	return b.String()
}

// TestAnalyzerGolden pins the Analyzer's inventory, strategy ladder,
// exception-free inference and weave check on the bundled packages to
// testdata/golden/weave-analyze.txt. On a mismatch the rendering is
// written to a temporary file named in the failure.
func TestAnalyzerGolden(t *testing.T) {
	var b strings.Builder
	for _, dir := range goldenPackages {
		b.WriteString(renderAnalyzer(t, dir))
	}
	got := b.String()
	goldenPath := filepath.Join("..", "..", "testdata", "golden", "weave-analyze.txt")
	want, err := os.ReadFile(goldenPath)
	if err == nil && string(want) == got {
		return
	}
	out, cerr := os.CreateTemp("", "weave-analyze-*.txt")
	if cerr != nil {
		t.Fatal(cerr)
	}
	defer out.Close()
	if _, werr := out.WriteString(got); werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatalf("read golden: %v; rendering written to %s", err, out.Name())
	}
	t.Fatalf("Analyzer output differs from %s; rendering written to %s (diff -u the two)", goldenPath, out.Name())
}

// TestHasDeferIgnoresPrologue checks HasDefer sees only cleanup defers:
// every selfstar method is woven, yet only PushGuarded defers cleanup.
func TestHasDeferIgnoresPrologue(t *testing.T) {
	inv, err := AnalyzeDir(filepath.Join("..", "selfstar"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range inv.Names() {
		if inv.Methods[name].HasDefer {
			got = append(got, name)
		}
	}
	if len(got) != 1 || got[0] != "AdaptorChain.PushGuarded" {
		t.Errorf("HasDefer methods = %v, want [AdaptorChain.PushGuarded]", got)
	}
}

// TestExceptionFreeReasonsDeterministic reruns the inference: each
// disqualification reason must come out the same every time.
func TestExceptionFreeReasonsDeterministic(t *testing.T) {
	dir := filepath.Join("..", "collections")
	first, err := SuggestExceptionFree(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := SuggestExceptionFree(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Reasons, first.Reasons) {
			t.Fatalf("rerun %d: reasons differ from the first run", i+1)
		}
	}
}
