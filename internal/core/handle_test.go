package core

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"failatomic/internal/fault"
)

// purse is the handle tests' subject. Each method enters through twin,
// which takes the handle route or the string route by purseByName, so one
// workload runs through both.
type purse struct {
	Coins []int
	Spent int
}

var (
	mPurseAdd   = Method("purse.Add")
	mPursePay   = Method("purse.Pay")
	mPurseCheck = Method("purse.check")
)

// purseByName routes purse's prologues through the string Enter. Only the
// sequential TestHandleMatchesStringEnter sets it.
var purseByName bool

func twin(h *MethodHandle, recv any, extra ...any) func() {
	if purseByName {
		return Enter(recv, h.Name(), extra...)
	}
	return h.Enter(recv, extra...)
}

func (p *purse) Add(c int) {
	defer twin(mPurseAdd, p)()
	p.Coins = append(p.Coins, c)
	p.check(c)
}

// Pay moves n coins to dst, which is compared as a by-reference argument;
// it spends before it checks, so a rejected payment is non-atomic.
func (p *purse) Pay(dst *purse, n int) {
	defer twin(mPursePay, p, dst)()
	p.Spent += n
	p.check(len(p.Coins) - n)
	dst.Coins = append(dst.Coins, p.Coins[len(p.Coins)-n:]...)
	p.Coins = p.Coins[:len(p.Coins)-n]
}

func (p *purse) check(v int) {
	defer twin(mPurseCheck, p)()
	if v < 0 {
		fault.Throw(fault.IllegalArgument, "purse.check", "negative")
	}
}

// purseWorkload mixes atomic, non-atomic and organically unwinding calls,
// one with a by-reference argument; every escape is caught.
func purseWorkload() {
	a, b := &purse{}, &purse{}
	for i := 0; i < 3; i++ {
		catchPanic(func() { a.Add(i) })
		catchPanic(func() { a.Pay(b, 2) })
		catchPanic(func() { b.Add(-1) })
	}
}

// runPurse runs purseWorkload under s, installed as the global session.
func runPurse(t *testing.T, s *Session) sessionView {
	t.Helper()
	if err := Install(s); err != nil {
		t.Fatal(err)
	}
	defer Uninstall(s)
	purseWorkload()
	return viewOf(s)
}

// purseConfigs covers every behavior a prologue drives: counting and
// injection, both snapshot modes, masking, span recording, prediction and
// targeted diffs.
func purseConfigs(t *testing.T) map[string]Config {
	t.Helper()
	reg := NewRegistry().Method("purse", "Pay", fault.IllegalState)
	base := Config{Registry: reg, Inject: true, Detect: true}
	clean := base
	clean.RecordSpans = true
	index := IndexSpans(runPurse(t, NewSession(clean)).Spans)
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	return map[string]Config{
		"count":       {Registry: reg},
		"clean-spans": clean,
		"threshold":   with(func(c *Config) { c.InjectionPoint = 7 }),
		"capture":     with(func(c *Config) { c.InjectionPoint = 7; c.Snapshot = SnapshotCapture }),
		"predict":     with(func(c *Config) { c.InjectionPoint = 11; c.Predict = index }),
		"masked":      with(func(c *Config) { c.InjectionPoint = 9; c.Mask = true; c.MaskAll = true }),
		"diffcalls": with(func(c *Config) {
			c.Snapshot = SnapshotCapture
			c.DiffCalls = map[CallID]bool{{"purse.Pay", 2}: true}
		}),
	}
}

// TestHandleMatchesStringEnter: the handle route and the string route are
// one engine path, so a workload reports the same marks, calls, spans and
// mask statistics through either.
func TestHandleMatchesStringEnter(t *testing.T) {
	for name, cfg := range purseConfigs(t) {
		byHandle := runPurse(t, NewSession(cfg))
		purseByName = true
		byName := runPurse(t, NewSession(cfg))
		purseByName = false
		if !reflect.DeepEqual(byHandle, byName) {
			t.Errorf("%s: handle route reports\n%+v\nstring route reports\n%+v", name, byHandle, byName)
		}
		if len(byHandle.Calls) == 0 {
			t.Errorf("%s: no calls counted", name)
		}
	}
}

// TestHandlesShareAcrossBoundSessions: two sessions bound on two
// goroutines, predicting from different span indexes, drive the same
// handles at once; each counts and marks exactly what it does alone. Run
// under -race: a call writes only its own session's state.
func TestHandlesShareAcrossBoundSessions(t *testing.T) {
	cfgs := purseConfigs(t)
	// The second index is seeded with extra names and read off a capture
	// run, so the two sessions hold different indexes over the same
	// handles.
	other := cfgs["clean-spans"]
	other.Snapshot = SnapshotCapture
	second := cfgs["predict"]
	second.InjectionPoint = 5
	second.Predict = IndexSpans(runPurse(t, NewSession(other)).Spans, "purse.Unseen", "zz.Other")
	configs := []Config{cfgs["predict"], second}

	want := make([]sessionView, len(configs))
	for i, cfg := range configs {
		want[i] = runPurse(t, NewSession(cfg))
	}
	if reflect.DeepEqual(want[0].Marks, want[1].Marks) {
		t.Fatal("the two configurations mark alike; the test would not tell them apart")
	}

	const rounds = 50
	var wg sync.WaitGroup
	got := make([][]sessionView, len(configs))
	for i, cfg := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSession(cfg)
			for r := 0; r < rounds; r++ {
				s.Reset(cfg)
				s.Bind(purseWorkload)
				got[i] = append(got[i], viewOf(s))
			}
		}()
	}
	wg.Wait()
	for i := range configs {
		for r, view := range got[i] {
			if !reflect.DeepEqual(view, want[i]) {
				t.Fatalf("session %d round %d reports\n%+v\nalone it reports\n%+v", i, r, view, want[i])
			}
		}
	}
}

// TestHandleInterning: a name has one handle, whichever route and
// goroutine interned it first, and names outside the table have none. Run
// under -race: goroutines intern new names while others look them up.
func TestHandleInterning(t *testing.T) {
	if Method("purse.Add") != mPurseAdd || mPurseAdd.Name() != "purse.Add" {
		t.Fatal("Method must return the interned handle")
	}
	names := []string{"handleTest.A", "handleTest.B", "handleTest.C", "handleTest.D"}
	const goroutines = 4
	got := make([][]*MethodHandle, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(i+g)%len(names)]
				got[g] = append(got[g], Method(name), lookupMethod(name))
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		h := lookupMethod(name)
		if h == nil || h.Name() != name {
			t.Fatalf("%s interned as %v", name, h)
		}
		for g := range got {
			for _, other := range got[g] {
				if other.Name() == name && other != h {
					t.Fatalf("%s has two handles", name)
				}
			}
		}
	}
	if lookupMethod("handleTest.Never") != nil {
		t.Fatal("lookup must not intern")
	}
}

// appPackages hold the bundled applications' hand-written prologues.
var appPackages = []string{"collections", "regexplite", "selfstar", "xmlite", "harness"}

// stringPrologue matches a prologue that names its method by string
// literal: defer enter(l, "T.M")() or defer core.Enter(nil, "T.M")().
var stringPrologue = regexp.MustCompile(`(?m)^\s*defer\s+(\w+\.)?[Ee]nter\([^)]*"`)

// TestAppProloguesUseHandles keeps the migration complete: every
// prologue of the bundled applications enters through a method handle.
func TestAppProloguesUseHandles(t *testing.T) {
	files := 0
	for _, pkg := range appPackages {
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files++
			if loc := stringPrologue.FindIndex(src); loc != nil {
				t.Errorf("%s: string-literal prologue %q; use a method handle", path, src[loc[0]:loc[1]])
			}
		}
	}
	if files == 0 {
		t.Fatal("no application sources found")
	}
}
