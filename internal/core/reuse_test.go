package core

import (
	"reflect"
	"testing"

	"failatomic/internal/fault"
)

// sessionView is everything a session's getters report about one run.
type sessionView struct {
	Point       int
	Injected    *fault.Exception
	InjectedAll []*fault.Exception
	Trace       []PointInfo
	Marks       []Mark
	MarkCalls   []CallID
	MarkDiffs   []string
	Spans       []Span
	Misses      int
	Calls       map[string]int64
	MaskSkips   []MaskSkip
	Masked      int64
	Rollbacks   int64
	MaskStats   map[string]MaskStat
}

func viewOf(s *Session) sessionView {
	return sessionView{
		Point:       s.Point(),
		Injected:    s.Injected(),
		InjectedAll: s.InjectedAll(),
		Trace:       s.PointTrace(),
		Marks:       s.Marks(),
		MarkCalls:   s.AppendMarkCalls(nil),
		MarkDiffs:   s.AppendMarkDiffs(nil),
		Spans:       s.Spans(),
		Misses:      s.PredictMisses(),
		Calls:       s.Calls(),
		MaskSkips:   s.MaskSkips(),
		Masked:      s.MaskedCalls(),
		Rollbacks:   s.Rollbacks(),
		MaskStats:   s.MaskStats(),
	}
}

// reuseWorkload mixes non-atomic, atomic and organically unwinding calls
// on fresh objects; every escape is caught, so a run goes on after an
// injection.
func reuseWorkload() {
	catchPanic(func() { diffWorkload() })
	catchPanic(func() { ledgerWorkload(false) })
}

// runView runs reuseWorkload under s, installed as the global session.
func runView(t *testing.T, s *Session) sessionView {
	t.Helper()
	if err := Install(s); err != nil {
		t.Fatal(err)
	}
	defer Uninstall(s)
	reuseWorkload()
	return viewOf(s)
}

// TestSessionReuseMatchesFresh: one session, reset between runs through a
// sequence of configurations that exercises every session behavior,
// reports after each run exactly what a fresh session with the same
// configuration reports, and leaves every slice it returned for an earlier
// run unchanged (Reset detaches them instead of truncating).
func TestSessionReuseMatchesFresh(t *testing.T) {
	reg := NewRegistry().
		Method("account", "Deposit", fault.IllegalState).
		Method("ledger", "check", fault.IllegalArgument)
	base := Config{Registry: reg, Inject: true, Detect: true}

	cleanCfg := base
	cleanCfg.RecordSpans = true
	clean := runView(t, NewSession(cleanCfg))
	index := IndexSpans(clean.Spans)
	// A second index over the same spans with a differently seeded method
	// table: a session must renumber its methods when it switches.
	seeded := IndexSpans(clean.Spans, "ledger.check", "zz.Unseen", "account.log")

	full := base
	full.Snapshot = SnapshotCapture
	full.InjectionPoint = 5
	fullView := runView(t, NewSession(full))
	if len(fullView.MarkCalls) < 2 {
		t.Fatalf("capture run marked %d calls, want at least 2", len(fullView.MarkCalls))
	}
	first, last := fullView.MarkCalls[0], fullView.MarkCalls[len(fullView.MarkCalls)-1]

	with := func(c Config, edit func(*Config)) Config {
		edit(&c)
		return c
	}
	steps := []struct {
		name string
		cfg  Config
	}{
		{"threshold", with(base, func(c *Config) { c.InjectionPoint = 4 })},
		{"clean-spans", cleanCfg},
		{"predict", with(base, func(c *Config) { c.InjectionPoint = 6; c.Predict = index })},
		{"predict-reseeded", with(base, func(c *Config) { c.InjectionPoint = 9; c.Predict = seeded })},
		{"diffcalls", with(full, func(c *Config) { c.DiffCalls = map[CallID]bool{first: true, last: true} })},
		{"burst", with(base, func(c *Config) { c.Trigger = everyNth(5) })},
		{"exit-fire", with(base, func(c *Config) {
			c.ExitFire = func(method string, call int64) (fault.Kind, bool) {
				return fault.RuntimeError, method == "account.log" && call == 3
			}
		})},
		{"oblivious", with(base, func(c *Config) { c.InjectionPoint = 7; c.Oblivious = true })},
		{"mask-detect", with(base, func(c *Config) { c.InjectionPoint = 5; c.Mask = true; c.MaskAll = true })},
		{"mask-some", with(base, func(c *Config) {
			c.InjectionPoint = 3
			c.Mask = true
			c.MaskMethods = map[string]bool{"account.Deposit": true}
			c.ExceptionFree = map[string]bool{"account.log": true}
		})},
		{"predict-masked", with(base, func(c *Config) {
			c.InjectionPoint = 8
			c.Predict = index
			c.Mask = true
			c.MaskAll = true
		})},
		{"trace-points", with(base, func(c *Config) { c.TracePoints = true; c.InjectionPoint = 2 })},
		{"record-spans", cleanCfg},
		{"count-only", Config{Registry: reg}},
		{"threshold-again", with(base, func(c *Config) { c.InjectionPoint = 4 })},
	}

	reused := NewSession(Config{})
	var prevName string
	var prev, prevWant sessionView
	for i, step := range steps {
		reused.Reset(step.cfg)
		got := runView(t, reused)
		want := runView(t, NewSession(step.cfg))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): reused session reports\n%+v\nfresh session reports\n%+v", i, step.name, got, want)
		}
		if i > 0 && !reflect.DeepEqual(prev, prevWant) {
			t.Fatalf("step %d (%s) changed what step %s returned:\n%+v\nwant\n%+v", i, step.name, prevName, prev, prevWant)
		}
		prevName, prev, prevWant = step.name, got, want
	}
}

// TestSessionReuseResolvesNewFacts: a session resolves each method's
// facts once and keeps them across Reset while the config they come from
// stays the same, so a reset to different ExceptionFree or MaskMethods
// maps (or to other switches) must resolve them again: each run reports
// what a fresh session reports.
func TestSessionReuseResolvesNewFacts(t *testing.T) {
	reg := NewRegistry().
		Method("account", "Deposit", fault.IllegalState).
		Method("ledger", "check", fault.IllegalArgument)
	cfg := func(point int, free, mask map[string]bool) Config {
		return Config{Registry: reg, Inject: true, Detect: true, InjectionPoint: point,
			Mask: mask != nil, MaskMethods: mask, ExceptionFree: free}
	}
	freeLog := map[string]bool{"account.log": true}
	maskDeposit := map[string]bool{"account.Deposit": true}
	steps := []struct {
		name string
		cfg  Config
	}{
		{"first", cfg(3, freeLog, maskDeposit)},
		{"same-maps", cfg(5, freeLog, maskDeposit)},
		{"other-free", cfg(3, map[string]bool{"ledger.check": true}, maskDeposit)},
		{"other-mask", cfg(3, map[string]bool{"ledger.check": true}, map[string]bool{"ledger.check": true, "account.log": true})},
		{"no-maps", cfg(3, nil, nil)},
		{"first-again", cfg(3, freeLog, maskDeposit)},
		{"mask-all", edited(cfg(3, freeLog, maskDeposit), func(c *Config) { c.MaskAll = true })},
		{"no-inject", edited(cfg(3, freeLog, maskDeposit), func(c *Config) { c.Inject = false })},
		{"other-registry", edited(cfg(3, freeLog, maskDeposit), func(c *Config) {
			c.Registry = NewRegistry().Method("account", "log", fault.IllegalArgument)
		})},
	}
	reused := NewSession(Config{})
	for i, step := range steps {
		reused.Reset(step.cfg)
		got := runView(t, reused)
		want := runView(t, NewSession(step.cfg))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): reused session reports\n%+v\nfresh session reports\n%+v", i, step.name, got, want)
		}
	}
}

// edited returns c after edit.
func edited(c Config, edit func(*Config)) Config {
	edit(&c)
	return c
}
