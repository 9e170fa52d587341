package core

import (
	"sync"
	"testing"

	"failatomic/internal/fault"
)

// bindBox is the test subject for scoped-session routing: Mutate bumps the
// counter and optionally throws, so detection sees a non-atomic method and
// masking can roll it back.
type bindBox struct {
	N int
}

func (b *bindBox) Mutate(throw bool) {
	defer Enter(b, "bindBox.Mutate")()
	b.N++
	if throw {
		fault.Throw(fault.IllegalState, "bindBox.Mutate", "requested")
	}
}

var mBindBoxMutate = Method("bindBox.Mutate")

// MutateByHandle is Mutate entering through its method handle.
func (b *bindBox) MutateByHandle(throw bool) {
	defer mBindBoxMutate.Enter(b)()
	b.N++
	if throw {
		fault.Throw(fault.IllegalState, "bindBox.Mutate", "requested")
	}
}

func recoverMutate(b *bindBox, throw bool) {
	defer func() { _ = recover() }()
	b.Mutate(throw)
}

func TestBindRoutesToBoundSession(t *testing.T) {
	s := NewSession(Config{Detect: true})
	s.Bind(func() {
		if Current() != s {
			t.Fatal("Current must return the bound session inside Bind")
		}
		recoverMutate(&bindBox{}, true)
	})
	if Current() != nil {
		t.Fatal("binding must not outlive Bind")
	}
	if got := s.Calls()["bindBox.Mutate"]; got != 1 {
		t.Fatalf("bound session saw %d calls, want 1", got)
	}
	if len(s.Marks()) != 1 || s.Marks()[0].Atomic {
		t.Fatalf("bound session must mark the throwing mutate non-atomic: %+v", s.Marks())
	}
}

// TestConcurrentBoundSessions is the headline scoped-session property:
// many sessions detect and mask simultaneously on different goroutines,
// each observing only its own workload. Run under -race.
func TestConcurrentBoundSessions(t *testing.T) {
	const goroutines = 16
	sessions := make([]*Session, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		mask := i%2 == 0
		s := NewSession(Config{
			Detect:      true,
			Mask:        mask,
			MaskMethods: map[string]bool{"bindBox.Mutate": true},
		})
		sessions[i] = s
		wg.Add(1)
		go func(s *Session, calls int) {
			defer wg.Done()
			s.Bind(func() {
				box := &bindBox{}
				for c := 0; c < calls; c++ {
					recoverMutate(box, true)
				}
			})
		}(s, i+1)
	}
	wg.Wait()
	for i, s := range sessions {
		wantCalls := int64(i + 1)
		if got := s.Calls()["bindBox.Mutate"]; got != wantCalls {
			t.Errorf("session %d saw %d calls, want %d", i, got, wantCalls)
		}
		if got := len(s.Marks()); got != i+1 {
			t.Errorf("session %d recorded %d marks, want %d", i, got, i+1)
		}
		masked := i%2 == 0
		for _, m := range s.Marks() {
			if m.Masked != masked {
				t.Errorf("session %d: mark masked=%v, want %v", i, m.Masked, masked)
			}
			if masked && !m.Atomic {
				t.Errorf("session %d: masked mutate must compare atomic: %s", i, m.Diff)
			}
			if !masked && m.Atomic {
				t.Errorf("session %d: unmasked mutate must compare non-atomic", i)
			}
		}
		if masked {
			if s.Rollbacks() != int64(i+1) {
				t.Errorf("session %d rollbacks = %d, want %d", i, s.Rollbacks(), i+1)
			}
		}
	}
}

func TestNestedBindRestoresPrevious(t *testing.T) {
	outer := NewSession(Config{Detect: true})
	inner := NewSession(Config{Detect: true})
	outer.Bind(func() {
		recoverMutate(&bindBox{}, true)
		inner.Bind(func() {
			if Current() != inner {
				t.Fatal("inner binding must shadow the outer")
			}
			recoverMutate(&bindBox{}, true)
		})
		if Current() != outer {
			t.Fatal("outer binding must be restored after nested Bind")
		}
		recoverMutate(&bindBox{}, true)
	})
	if got := outer.Calls()["bindBox.Mutate"]; got != 2 {
		t.Fatalf("outer saw %d calls, want 2", got)
	}
	if got := inner.Calls()["bindBox.Mutate"]; got != 1 {
		t.Fatalf("inner saw %d calls, want 1", got)
	}
}

func TestBindRestoresBindingOnPanic(t *testing.T) {
	s := NewSession(Config{})
	func() {
		defer func() { _ = recover() }()
		s.Bind(func() { panic("boom") })
	}()
	if Current() != nil {
		t.Fatal("binding must be removed when fn panics")
	}
}

// TestBoundAndGlobalCoexist pins the fallback contract: a goroutine with a
// binding routes to its session while unbound goroutines keep using the
// installed legacy global. Run under -race.
func TestBoundAndGlobalCoexist(t *testing.T) {
	global := NewSession(Config{Detect: true})
	if err := Install(global); err != nil {
		t.Fatal(err)
	}
	defer Uninstall(global)

	scoped := NewSession(Config{Detect: true})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		scoped.Bind(func() {
			for i := 0; i < 50; i++ {
				recoverMutate(&bindBox{}, true)
			}
		})
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			recoverMutate(&bindBox{}, true)
		}
	}()
	wg.Wait()

	if got := scoped.Calls()["bindBox.Mutate"]; got != 50 {
		t.Errorf("scoped session saw %d calls, want 50", got)
	}
	if got := global.Calls()["bindBox.Mutate"]; got != 30 {
		t.Errorf("global session saw %d calls, want 30", got)
	}
}

func TestEnterIsNoOpAfterBindingsDrain(t *testing.T) {
	s := NewSession(Config{Detect: true})
	s.Bind(func() {})
	box := &bindBox{}
	box.Mutate(false) // no session anywhere: must be a no-op
	if len(s.Calls()) != 0 {
		t.Fatalf("drained session must observe nothing: %v", s.Calls())
	}
}

func TestBindNilFuncIsNoOp(t *testing.T) {
	s := NewSession(Config{})
	s.Bind(nil)
	if Current() != nil {
		t.Fatal("Bind(nil) must not leave a binding")
	}
}
