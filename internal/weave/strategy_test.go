package weave

import (
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrategyLinkedList pins the Item-76 rung assignments for the seed
// LinkedList: the leading Version/Count bumps make most mutators
// reorderable, while methods that write interior cells (or compensate
// inside the risky region) need the full checkpoint.
func TestStrategyLinkedList(t *testing.T) {
	inv, err := AnalyzeDir(filepath.Join("..", "collections"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"LinkedList.InsertFirst": StrategyReorder,
		"LinkedList.InsertLast":  StrategyReorder,
		"LinkedList.RemoveFirst": StrategyReorder,
		"LinkedList.RemoveAt":    StrategyReorder,
		"LinkedList.RemoveOne":   StrategyReorder,
		"LinkedList.ReplaceAt":   StrategyReorder,
		"LinkedList.InsertAt":    StrategyCheckpoint,
		"LinkedList.RemoveLast":  StrategyCheckpoint,
		"LinkedList.RemoveAll":   StrategyCheckpoint,
		"LinkedList.ReplaceAll":  StrategyCheckpoint,
		"LinkedList.At":          StrategyNone,
		"LinkedList.Clear":       StrategyNone,
		"LinkedList.New":         StrategyNone,
		"LinkedList.checkIndex":  StrategyNone,
		"LLIterator.Next":        StrategyNone,
	}
	for name, rung := range want {
		facts := inv.Methods[name]
		if facts == nil {
			t.Fatalf("method %s not inventoried", name)
		}
		if facts.Strategy != rung {
			t.Errorf("%s: strategy = %s (%s), want %s", name, facts.Strategy, facts.StrategyReason, rung)
		}
	}
	// The fixed list has validate-before-mutate bodies: the rewrite target
	// state must analyze to "none".
	for _, name := range []string{"LinkedListFixed.InsertLast", "LinkedListFixed.RemoveAt"} {
		if facts := inv.Methods[name]; facts == nil || facts.Strategy != StrategyNone {
			t.Errorf("%s: want none after manual fix, got %+v", name, facts)
		}
	}
}

// strategyFixture is a package exercising all three rewrite rungs.
const strategyFixture = `package subject

import "failatomic/internal/fault"

type Node struct {
	Next *Node
}

type Counter struct {
	N       int
	Version int
	Head    *Node
	Items   []int
}

// Add leads with a bump, then validates: reorderable.
func (c *Counter) Add(v int) {
	c.Version++
	c.check(v)
	c.Items = append(c.Items, v)
	c.N++
}

// Set writes only direct fields with a throw site after the first
// mutation: temp-copy-then-swap.
func (c *Counter) Set(a, b int) {
	c.N = a
	c.Version = b
	c.check(a)
}

// Link mutates an interior node: checkpoint.
func (c *Counter) Link(n *Node) {
	n.Next = c.Head
	c.Head = n
	c.check(0)
}

func (c *Counter) check(v int) {
	if v < 0 {
		fault.Throw(fault.IllegalArgument, "Counter.check", "negative")
	}
}
`

func writeFixtureDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "subject.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStrategyFixtureRungs(t *testing.T) {
	dir := writeFixtureDir(t, strategyFixture)
	inv, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Counter.Add":   StrategyReorder,
		"Counter.Set":   StrategyTempSwap,
		"Counter.Link":  StrategyCheckpoint,
		"Counter.check": StrategyNone,
	}
	for name, rung := range want {
		facts := inv.Methods[name]
		if facts == nil {
			t.Fatalf("method %s not inventoried", name)
		}
		if facts.Strategy != rung {
			t.Errorf("%s: strategy = %s (%s), want %s", name, facts.Strategy, facts.StrategyReason, rung)
		}
	}
}

// rewriteFixture applies the recommended rungs to a fresh fixture copy and
// returns the rewritten source.
func rewriteFixture(t *testing.T) (string, []RewriteResult) {
	t.Helper()
	dir := writeFixtureDir(t, strategyFixture)
	strategies := map[string]string{
		"Counter.Add":  StrategyReorder,
		"Counter.Set":  StrategyTempSwap,
		"Counter.Link": StrategyCheckpoint,
	}
	results, err := RewriteDir(dir, Options{}, strategies)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "subject.go"))
	if err != nil {
		t.Fatal(err)
	}
	return string(out), results
}

func TestRewriteDirAppliesRungs(t *testing.T) {
	out, results := rewriteFixture(t)
	for _, r := range results {
		if !r.Applied {
			t.Errorf("%s (%s): rewrite not applied", r.Method, r.Strategy)
		}
	}
	// Reorder: the bump moved after the validation call.
	if idx := strings.Index(out, "c.check(v)"); idx < 0 || strings.Index(out, "c.Version++") < idx {
		t.Errorf("reorder did not move the bump after the throw site:\n%s", out)
	}
	// TempSwap: saved locals and restore-on-panic defer.
	if !strings.Contains(out, "faSavedN, faSavedVersion := c.N, c.Version") {
		t.Errorf("tempswap save missing:\n%s", out)
	}
	if !strings.Contains(out, "c.N, c.Version = faSavedN, faSavedVersion") {
		t.Errorf("tempswap restore missing:\n%s", out)
	}
	// Checkpoint: a Guard defer on the facade.
	if !strings.Contains(out, "defer failatomic.Guard(c)()") {
		t.Errorf("checkpoint guard missing:\n%s", out)
	}
	if !strings.Contains(out, `import (`) && !strings.Contains(out, `"failatomic"`) {
		t.Errorf("facade import missing:\n%s", out)
	}
}

// TestRewriteDirIdempotent re-runs the rewriter over its own output: the
// second pass must make no edits and leave the bytes unchanged.
func TestRewriteDirIdempotent(t *testing.T) {
	first, _ := rewriteFixture(t)

	dir := writeFixtureDir(t, first)
	strategies := map[string]string{
		"Counter.Add":  StrategyReorder,
		"Counter.Set":  StrategyTempSwap,
		"Counter.Link": StrategyCheckpoint,
	}
	results, err := RewriteDir(dir, Options{}, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Applied {
			t.Errorf("%s (%s): second pass re-applied the rewrite", r.Method, r.Strategy)
		}
	}
	out, err := os.ReadFile(filepath.Join(dir, "subject.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != first {
		t.Errorf("second rewrite changed bytes:\n--- first ---\n%s\n--- second ---\n%s", first, out)
	}
}

// TestRewriteThenWeaveRoundTrip checks the strategy-rewritten output
// survives the prologue weaver's round-trip guarantees: weave is
// idempotent over it, and strip(weave(x)) == gofmt(x).
func TestRewriteThenWeaveRoundTrip(t *testing.T) {
	rewritten, _ := rewriteFixture(t)
	formatted, err := format.Source([]byte(rewritten))
	if err != nil {
		t.Fatal(err)
	}

	woven, changed, err := InstrumentFile("subject.go", formatted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("weave made no change to the rewritten fixture")
	}
	again, changed, err := InstrumentFile("subject.go", woven, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if changed || string(again) != string(woven) {
		t.Errorf("weave not idempotent over rewritten source")
	}
	stripped, _, err := InstrumentFile("subject.go", woven, Options{Strip: true})
	if err != nil {
		t.Fatal(err)
	}
	if string(stripped) != string(formatted) {
		t.Errorf("strip(weave(x)) != x:\n--- want ---\n%s\n--- got ---\n%s", formatted, stripped)
	}
}

// TestConstructorCallsResolve checks a call spelled NewCell reaches the
// constructor keyed Cell.New: its exception flows into the caller, whose
// counter bump is then not atomic.
func TestConstructorCallsResolve(t *testing.T) {
	dir := writeFixtureDir(t, `package subject

import "failatomic/internal/fault"

type Cell struct{ v int }

func NewCell(v int) *Cell {
	if v < 0 {
		fault.Throw(fault.IllegalArgument, "Cell.New", "negative")
	}
	return &Cell{v: v}
}

type List struct {
	n    int
	head *Cell
}

func (l *List) Add(v int) {
	l.n++
	l.head = NewCell(v)
}
`)
	inv, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	add := inv.Methods["List.Add"]
	if len(add.Declared) != 1 || add.Declared[0] != "IllegalArgument" {
		t.Errorf("List.Add declared = %v, want [IllegalArgument]", add.Declared)
	}
	if add.Strategy == StrategyNone {
		t.Errorf("List.Add: strategy none (%s); the constructor can throw after the bump", add.StrategyReason)
	}
}

// TestBuiltinWritesAreMutations checks delete, clear and copy into
// receiver state count as mutations, both in the method itself and in a
// helper it calls.
func TestBuiltinWritesAreMutations(t *testing.T) {
	for _, write := range []string{"delete(s.m, k)", "clear(s.m)", "copy(s.buf, src)", "s.drop(k)"} {
		t.Run(write, func(t *testing.T) {
			dir := writeFixtureDir(t, `package subject

import "failatomic/internal/fault"

type Set struct {
	m   map[int]bool
	buf []int
}

func (s *Set) Remove(k int, src []int) {
	`+write+`
	if k < 0 {
		fault.Throw(fault.IllegalArgument, "Set.Remove", "negative")
	}
}

func (s *Set) drop(k int) {
	delete(s.m, k)
}
`)
			inv, err := AnalyzeDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if facts := inv.Methods["Set.Remove"]; facts.Strategy != StrategyCheckpoint {
				t.Errorf("Set.Remove: strategy = %s (%s), want %s", facts.Strategy, facts.StrategyReason, StrategyCheckpoint)
			}
		})
	}
}
