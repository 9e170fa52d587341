package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"failatomic/internal/apps"
	"failatomic/internal/core"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
)

// maskPin is the masking accounting of one corrected program run once
// under a masked session.
type maskPin struct {
	stats  map[string]core.MaskStat
	masked int64
	skips  int
}

// render prints a pin in a stable order, for failure messages.
func (p maskPin) render() string {
	names := make([]string, 0, len(p.stats))
	for name := range p.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "masked=%d skips=%d\n", p.masked, p.skips)
	for _, name := range names {
		st := p.stats[name]
		fmt.Fprintf(&b, "  %q: {Calls: %d, Bytes: %d, Rollbacks: %d},\n", name, st.Calls, st.Bytes, st.Rollbacks)
	}
	return b.String()
}

// maskedRunPins is the masking accounting of every masked-run benchmark
// item — the five corrected apps under their §4.3 wrap plans and the
// 64 KiB Figure 5 loop — recorded with the reflective checkpoint engine
// that predates compiled plans. Checkpoint plans and slab reuse must only
// make masking cheaper: calls, bytes and rollbacks stay exactly these.
var maskedRunPins = map[string]maskPin{
	"RBMap": {masked: 22, skips: 0, stats: map[string]core.MaskStat{
		"RBMap.Clear":        {Calls: 1, Bytes: 81, Rollbacks: 0},
		"RBMap.Put":          {Calls: 7, Bytes: 434, Rollbacks: 1},
		"RBMap.Remove":       {Calls: 2, Bytes: 176, Rollbacks: 0},
		"RBTree.Insert":      {Calls: 5, Bytes: 218, Rollbacks: 0},
		"RBTree.RemoveCell":  {Calls: 1, Bytes: 87, Rollbacks: 0},
		"RBTree.deleteFixup": {Calls: 1, Bytes: 73, Rollbacks: 0},
		"RBTree.insertFixup": {Calls: 5, Bytes: 289, Rollbacks: 0},
	}},
	"LinkedList": {masked: 15, skips: 0, stats: map[string]core.MaskStat{
		"LinkedList.InsertAt":    {Calls: 1, Bytes: 64, Rollbacks: 0},
		"LinkedList.InsertFirst": {Calls: 1, Bytes: 56, Rollbacks: 0},
		"LinkedList.InsertLast":  {Calls: 6, Bytes: 184, Rollbacks: 1},
		"LinkedList.RemoveAll":   {Calls: 1, Bytes: 64, Rollbacks: 0},
		"LinkedList.RemoveAt":    {Calls: 1, Bytes: 48, Rollbacks: 0},
		"LinkedList.RemoveFirst": {Calls: 2, Bytes: 56, Rollbacks: 1},
		"LinkedList.RemoveOne":   {Calls: 1, Bytes: 72, Rollbacks: 0},
		"LinkedList.ReplaceAll":  {Calls: 1, Bytes: 72, Rollbacks: 0},
		"LinkedList.ReplaceAt":   {Calls: 1, Bytes: 72, Rollbacks: 0},
	}},
	"xml2xml1": {masked: 12, skips: 0, stats: map[string]core.MaskStat{
		"Writer.WriteDocument":     {Calls: 2, Bytes: 18, Rollbacks: 0},
		"Writer.WriteElement":      {Calls: 5, Bytes: 227, Rollbacks: 0},
		"XMLRenameAdaptor.Rewrite": {Calls: 5, Bytes: 311, Rollbacks: 0},
	}},
	"HashedMap": {masked: 17, skips: 0, stats: map[string]core.MaskStat{
		"HashedMap.Put":    {Calls: 12, Bytes: 1568, Rollbacks: 1},
		"HashedMap.Remove": {Calls: 2, Bytes: 428, Rollbacks: 0},
		"HashedMap.rehash": {Calls: 3, Bytes: 272, Rollbacks: 0},
	}},
	"RegExp": {masked: 102, skips: 0, stats: map[string]core.MaskStat{
		"Matcher.matchGroup":        {Calls: 5, Bytes: 627, Rollbacks: 0},
		"Matcher.matchRepeat":       {Calls: 19, Bytes: 2175, Rollbacks: 0},
		"REParser.ParseAlternation": {Calls: 9, Bytes: 324, Rollbacks: 2},
		"REParser.ParseAtom":        {Calls: 28, Bytes: 1042, Rollbacks: 1},
		"REParser.ParseBounds":      {Calls: 3, Bytes: 116, Rollbacks: 1},
		"REParser.ParseRepeat":      {Calls: 28, Bytes: 1042, Rollbacks: 2},
		"REParser.ParseSequence":    {Calls: 10, Bytes: 359, Rollbacks: 2},
	}},
	"BenchTarget": {masked: 100, skips: 0, stats: map[string]core.MaskStat{
		"BenchTarget.WorkMasked": {Calls: 100, Bytes: 6560800, Rollbacks: 0},
	}},
}

// runMaskedPin runs fn once under a session that masks exactly wrap.
func runMaskedPin(t *testing.T, wrap map[string]bool, fn func()) maskPin {
	t.Helper()
	s := core.NewSession(core.Config{Mask: true, MaskMethods: wrap})
	if err := core.Install(s); err != nil {
		t.Fatal(err)
	}
	func() {
		defer core.Uninstall(s)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("masked run panicked: %v", r)
			}
		}()
		fn()
	}()
	return maskPin{stats: s.MaskStats(), masked: s.MaskedCalls(), skips: len(s.MaskSkips())}
}

// TestMaskedRunAccountingPinned builds each masked-run item the way the
// benchmark does (a Repeats=1 classification, then mask.Build) and pins
// its per-method MaskStat, masked-call count and skip count.
func TestMaskedRunAccountingPinned(t *testing.T) {
	got := map[string]maskPin{}
	for _, name := range []string{"RBMap", "LinkedList", "xml2xml1", "HashedMap", "RegExp"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("unknown app %s", name)
		}
		res, err := RunApp(context.Background(), app, inject.Options{Repeats: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan := mask.Build(res.Classification, nil, mask.Policy{})
		got[name] = runMaskedPin(t, plan.WrapSet(), app.Build().Run)
	}
	target := NewBenchTarget(64 << 10)
	got["BenchTarget"] = runMaskedPin(t, map[string]bool{"BenchTarget.WorkMasked": true}, func() {
		for i := 0; i < 1000; i++ {
			if i%10 == 0 {
				target.WorkMasked()
			} else {
				target.Work()
			}
		}
	})
	if len(got) != len(maskedRunPins) {
		t.Fatalf("%d items, %d pins", len(got), len(maskedRunPins))
	}
	for name, want := range maskedRunPins {
		if g := got[name]; g.render() != want.render() {
			t.Errorf("%s masking accounting moved:\ngot  %s\nwant %s", name, g.render(), want.render())
		}
	}
}
