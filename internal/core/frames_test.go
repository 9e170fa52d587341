package core

import (
	"reflect"
	"sync"
	"testing"

	"failatomic/internal/checkpoint"
	"failatomic/internal/fault"
)

// level is one storey of a tower of nested wrapped calls: Climb enters
// with its own receiver, changes it when Touch is set, and climbs the rest
// of the tower; the top storey calls top. Separate receivers make each
// call's verdict its own, so a mark read off another call's frame shows.
type level struct {
	V     int
	Touch bool
}

func (l *level) Climb(rest []*level, top func()) {
	defer Enter(l, "level.Climb")()
	if l.Touch {
		l.V++
	}
	if len(rest) == 0 {
		top()
		return
	}
	rest[0].Climb(rest[1:], top)
}

// Shield climbs the rest of the tower, recovering whatever unwinds out of
// it, then climbs its first storey once more.
func (l *level) Shield(rest []*level, top func()) {
	defer Enter(l, "level.Shield")()
	if l.Touch {
		l.V++
	}
	func() {
		defer func() { _ = recover() }()
		rest[0].Climb(rest[1:], top)
	}()
	rest[0].Climb(nil, top)
}

// peak is a wrapped call without a receiver: it counts its points but
// pushes no frame.
func peak() {
	defer Enter(nil, "level.peak")()
}

func tower(touch ...bool) []*level {
	ls := make([]*level, len(touch))
	for i, t := range touch {
		ls[i] = &level{Touch: t}
	}
	return ls
}

// onePoint makes every wrapped call exactly one injection point.
var onePoint = []fault.Kind{fault.RuntimeError}

// atPoints fires at the listed global points.
type atPoints map[int]bool

func (p atPoints) ShouldFire(point int, _ string, _ fault.Kind, _ int) bool { return p[point] }

// verdict is what a mark must say about the call it belongs to.
type verdict struct {
	call   CallID
	atomic bool
}

func climb(n int64) CallID  { return CallID{"level.Climb", n} }
func shield(n int64) CallID { return CallID{"level.Shield", n} }

// checkFrames fails unless the session's frame stack is empty, its
// Serialize lock is free, and its marks are want, callee first.
func checkFrames(t *testing.T, s *Session, want []verdict) {
	t.Helper()
	if len(s.frames) != 0 {
		t.Fatalf("%d frames left open: %+v", len(s.frames), s.frames)
	}
	if s.serial.depth != 0 || s.serial.owner.Load() != 0 {
		t.Fatalf("serialize lock still held: depth %d", s.serial.depth)
	}
	var got []verdict
	for i, m := range s.Marks() {
		if m.Seq != i+1 {
			t.Fatalf("mark %d has Seq %d", i, m.Seq)
		}
		id := s.AppendMarkCalls(nil)[i]
		if m.Method != id.Method {
			t.Fatalf("mark %d: method %s, call %+v", i, m.Method, id)
		}
		got = append(got, verdict{id, m.Atomic})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marks = %+v, want %+v", got, want)
	}
}

// frameConfigs are the session shapes every frame test runs under.
var frameConfigs = []struct {
	name string
	cfg  Config
}{
	{"fingerprint", Config{Detect: true}},
	{"capture", Config{Detect: true, Snapshot: SnapshotCapture}},
	{"serialize", Config{Detect: true, Serialize: true}},
	{"spans", Config{Detect: true, RecordSpans: true}},
	{"mask+detect", Config{Detect: true, Mask: true, MaskAll: true}},
}

// masking reports whether cfg rolls every call back, which makes every
// mark atomic.
func masking(cfg Config) bool { return cfg.Mask && cfg.MaskAll }

func (v verdict) under(cfg Config) verdict {
	if masking(cfg) {
		v.atomic = true
	}
	return v
}

func verdicts(cfg Config, vs ...verdict) []verdict {
	for i := range vs {
		vs[i] = vs[i].under(cfg)
	}
	return vs
}

// TestFramesBalanceAcrossNestedUnwind: an exception injected at the top
// of a three-storey tower unwinds three nested wrapped calls; each
// epilogue pops its own call's frame, so the marks come out innermost
// first with each storey's verdict, and no frame is left.
func TestFramesBalanceAcrossNestedUnwind(t *testing.T) {
	for _, c := range frameConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Inject, cfg.InjectionPoint, cfg.RuntimeKinds = true, 4, onePoint
			withSession(t, cfg, func(s *Session) {
				ls := tower(true, false, true)
				depth := -1
				r := catchPanic(func() {
					ls[0].Climb(ls[1:], func() { depth = len(s.frames); peak() })
				})
				if exc, ok := r.(*fault.Exception); !ok || !exc.Injected {
					t.Fatalf("recovered %v, want the injected exception", r)
				}
				if depth != 3 {
					t.Fatalf("%d frames open at the top, want 3", depth)
				}
				checkFrames(t, s, verdicts(cfg,
					verdict{climb(3), false}, verdict{climb(2), true}, verdict{climb(1), false}))
				if masking(cfg) && (ls[0].V != 0 || ls[2].V != 0 || s.Rollbacks() != 3) {
					t.Fatalf("rollbacks %d left V = %d, %d", s.Rollbacks(), ls[0].V, ls[2].V)
				}
				if cfg.RecordSpans {
					for i, sp := range s.Spans() {
						if sp.Call != climb(int64(i+1)) || !sp.Unwound || sp.Exit != 4 {
							t.Fatalf("span %d = %+v", i, sp)
						}
					}
				}
			})
		})
	}
}

// TestFramesBalanceWhenBodyRecovers: a wrapped method recovers an inner
// wrapped call's injected exception and calls another wrapped method;
// that one unwinds too, out of the recovering method. The recovering
// method's frame stays under the inner ones throughout, so each of the
// four marks belongs to the call that unwound.
func TestFramesBalanceWhenBodyRecovers(t *testing.T) {
	for _, c := range frameConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			// Points: Shield 1, Climb#1 2, Climb#2 3, peak 4 (fires),
			// Climb#3 5, peak 6 (fires).
			cfg.Trigger, cfg.Inject, cfg.RuntimeKinds = atPoints{4: true, 6: true}, true, onePoint
			withSession(t, cfg, func(s *Session) {
				ls := tower(true, true, false)
				r := catchPanic(func() { ls[0].Shield(ls[1:], peak) })
				if exc, ok := r.(*fault.Exception); !ok || exc.Point != 6 {
					t.Fatalf("recovered %v, want the exception injected at point 6", r)
				}
				checkFrames(t, s, verdicts(cfg,
					verdict{climb(2), true}, verdict{climb(1), false},
					verdict{climb(3), false}, verdict{shield(1), false}))
			})
		})
	}
}

// TestFramesBalanceObliviousAndExitFire: an epilogue fault on the middle
// storey marks that storey, then either stops there (Oblivious) or unwinds
// the storey below it; an ExitFire callback that panics itself leaves the
// middle storey unmarked and unwinds the one below.
func TestFramesBalanceObliviousAndExitFire(t *testing.T) {
	fireAt2 := func(method string, call int64) (fault.Kind, bool) {
		return fault.IllegalState, method == "level.Climb" && call == 2
	}
	panicAt2 := func(method string, call int64) (fault.Kind, bool) {
		if method == "level.Climb" && call == 2 {
			panic("ExitFire callback failed")
		}
		return "", false
	}
	for _, c := range frameConfigs {
		for _, e := range []struct {
			name      string
			exitFire  func(string, int64) (fault.Kind, bool)
			oblivious bool
			escapes   bool
			want      []verdict
		}{
			{"exitfire", fireAt2, false, true, []verdict{{climb(2), true}, {climb(1), false}}},
			{"exitfire+oblivious", fireAt2, true, false, []verdict{{climb(2), true}}},
			{"exitfire-panics", panicAt2, true, true, []verdict{{climb(1), false}}},
		} {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				cfg := c.cfg
				cfg.ExitFire, cfg.Oblivious = e.exitFire, e.oblivious
				withSession(t, cfg, func(s *Session) {
					ls := tower(true, false, true)
					r := catchPanic(func() { ls[0].Climb(ls[1:], peak) })
					if (r != nil) != e.escapes {
						t.Fatalf("recovered %v, want escape %v", r, e.escapes)
					}
					checkFrames(t, s, verdicts(cfg, e.want...))
				})
			})
		}
	}
}

// TestFramesBalanceObliviousInjection: an injected exception stops at the
// innermost storey under Oblivious, and the storeys below return
// normally; a foreign panic is never swallowed and unwinds all three.
func TestFramesBalanceObliviousInjection(t *testing.T) {
	for _, c := range frameConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Inject, cfg.InjectionPoint, cfg.RuntimeKinds, cfg.Oblivious = true, 4, onePoint, true
			withSession(t, cfg, func(s *Session) {
				ls := tower(true, false, true)
				if r := catchPanic(func() { ls[0].Climb(ls[1:], peak) }); r != nil {
					t.Fatalf("oblivious run escaped with %v", r)
				}
				checkFrames(t, s, verdicts(cfg, verdict{climb(3), false}))
			})
		})
	}
}

// TestFramesBalanceForeignPanic: a panic that is not an exception unwinds
// every storey, keeps its value, and marks each storey as its own.
func TestFramesBalanceForeignPanic(t *testing.T) {
	for _, c := range frameConfigs {
		t.Run(c.name, func(t *testing.T) {
			withSession(t, c.cfg, func(s *Session) {
				ls := tower(false, true, true)
				r := catchPanic(func() { ls[0].Climb(ls[1:], func() { panic("foreign") }) })
				if r != "foreign" {
					t.Fatalf("recovered %v, want the foreign panic", r)
				}
				checkFrames(t, s, verdicts(c.cfg,
					verdict{climb(3), false}, verdict{climb(2), false}, verdict{climb(1), true}))
			})
		})
	}
}

// rollbackBomb is a checkpoint strategy whose rollback of target panics.
type rollbackBomb struct {
	checkpoint.Strategy
	target *level
}

type bombHandle struct {
	checkpoint.Handle
	armed bool
}

func (b *rollbackBomb) Capture(roots ...any) (checkpoint.Handle, error) {
	h, err := b.Strategy.Capture(roots...)
	if err != nil {
		return nil, err
	}
	return &bombHandle{h, roots[0] == b.target}, nil
}

func (h *bombHandle) Rollback() error {
	if h.armed {
		panic("rollback failed")
	}
	return h.Handle.Rollback()
}

// TestFramesBalanceWhenRollbackPanics: a rollback that panics aborts its
// own epilogue only; the storey below still pops its own frame, rolls
// back and marks its own call.
func TestFramesBalanceWhenRollbackPanics(t *testing.T) {
	ls := tower(true, true, true)
	cfg := Config{
		Detect: true, Mask: true, MaskAll: true,
		Strategy: &rollbackBomb{checkpoint.New(), ls[1]},
		Inject:   true, InjectionPoint: 4, RuntimeKinds: onePoint,
	}
	withSession(t, cfg, func(s *Session) {
		if r := catchPanic(func() { ls[0].Climb(ls[1:], peak) }); r != "rollback failed" {
			t.Fatalf("recovered %v, want the rollback panic", r)
		}
		checkFrames(t, s, []verdict{{climb(3), true}, {climb(1), true}})
		if s.Rollbacks() != 2 || ls[0].V != 0 || ls[2].V != 0 {
			t.Fatalf("rollbacks %d left V = %d, %d", s.Rollbacks(), ls[0].V, ls[2].V)
		}
	})
}

// TestFramesOnlyForCallsWithEpilogues: a session pushes a frame only for a
// receiver-bearing call it masks or detects — never for calls without a
// receiver, and under Mask-only never for unmasked methods.
func TestFramesOnlyForCallsWithEpilogues(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		depth int
	}{
		{"detect-only", Config{Detect: true}, 3},
		{"mask-only", Config{Mask: true, MaskMethods: map[string]bool{"level.Climb": true}}, 3},
		{"mask-other", Config{Mask: true, MaskMethods: map[string]bool{"level.peak": true}}, 0},
		{"inject-only", Config{Inject: true, RuntimeKinds: onePoint}, 0},
		{"serialize-mask-only", Config{Mask: true, MaskAll: true, Serialize: true}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			withSession(t, c.cfg, func(s *Session) {
				ls := tower(true, false, true)
				depth, peakDepth := -1, -1
				ls[0].Climb(ls[1:], func() {
					depth = len(s.frames)
					func() {
						defer Enter(nil, "level.peak")()
						peakDepth = len(s.frames)
					}()
				})
				if depth != c.depth || peakDepth != c.depth {
					t.Fatalf("frames open at the top = %d, in peak = %d; want %d", depth, peakDepth, c.depth)
				}
				checkFrames(t, s, nil)
			})
		})
	}
}

// TestFramesBalanceSerializedGoroutines: under Serialize, goroutines
// sharing a session hold its lock for each whole call, so their nested
// calls never interleave on the frame stack, whether they return or
// unwind.
func TestFramesBalanceSerializedGoroutines(t *testing.T) {
	cfg := Config{Detect: true, Mask: true, MaskAll: true, Serialize: true}
	withSession(t, cfg, func(s *Session) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ls := tower(true, false, true)
				for i := 0; i < 20; i++ {
					catchPanic(func() {
						ls[0].Climb(ls[1:], func() {
							if i%2 == 0 {
								panic("foreign")
							}
						})
					})
				}
				if ls[0].V != 10 || ls[2].V != 10 {
					t.Errorf("V = %d, %d after 10 committed and 10 rolled-back climbs", ls[0].V, ls[2].V)
				}
			}()
		}
		wg.Wait()
		if len(s.frames) != 0 || s.serial.depth != 0 {
			t.Fatalf("%d frames left open, lock depth %d", len(s.frames), s.serial.depth)
		}
		if n := len(s.Marks()); n != 4*10*3 {
			t.Fatalf("%d marks, want %d", n, 4*10*3)
		}
		for _, m := range s.Marks() {
			if !m.Atomic || !m.Masked {
				t.Fatalf("rolled-back mark not atomic: %+v", m)
			}
		}
	})
}

// vault is a Snapshotter whose checkpoint runs during: user code that may
// enter wrapped methods while its own wrapped call is being entered.
type vault struct {
	V      int
	during func()
}

func (v *vault) CheckpointState() any {
	v.during()
	return v.V
}

func (v *vault) RestoreState(state any) { v.V = state.(int) }

// Spend changes the vault, then fails.
func (v *vault) Spend() {
	defer Enter(v, "vault.Spend")()
	v.V -= 10
	panic("declined")
}

// TestFramesReentrantSnapshotterGrowsStack: a Snapshotter whose
// checkpoint climbs a tower of wrapped calls taller than the frame stack
// has room for moves the stack while its own call is being entered. The
// call's frame is pushed only after its checkpoint, so the frame it pops
// holds its own checkpoint and the vault rolls back. (A prologue that
// took its slot before the checkpoint would write the checkpoint into the
// stack's old array and pop a frame without one.)
func TestFramesReentrantSnapshotterGrowsStack(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"mask", Config{Mask: true, MaskAll: true}},
		{"mask+detect", Config{Detect: true, Mask: true, MaskAll: true}},
		{"mask+capture", Config{Detect: true, Snapshot: SnapshotCapture, Mask: true, MaskAll: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSession(c.cfg)
			if err := Install(s); err != nil {
				t.Fatal(err)
			}
			defer Uninstall(s)
			grew := false
			v := &vault{V: 100}
			v.during = func() {
				room := cap(s.frames)
				ls := tower(make([]bool, room+2)...)
				ls[0].Climb(ls[1:], func() {})
				grew = cap(s.frames) > room
			}
			if r := catchPanic(v.Spend); r != "declined" {
				t.Fatalf("Spend panicked with %v", r)
			}
			if !grew {
				t.Fatal("the checkpoint did not grow the frame stack")
			}
			if v.V != 100 {
				t.Fatalf("V = %d after the unwind: the call did not roll back its own checkpoint", v.V)
			}
			if s.Rollbacks() != 1 {
				t.Fatalf("%d rollbacks, want 1", s.Rollbacks())
			}
			var want []verdict
			if c.cfg.Detect {
				want = []verdict{{CallID{"vault.Spend", 1}, true}}
			}
			checkFrames(t, s, want)
		})
	}
}
