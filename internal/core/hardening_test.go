package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"failatomic/internal/checkpoint"
	"failatomic/internal/fault"
)

// These tests failure-inject the engine itself: misused receivers, foreign
// panics, re-entrancy, checkpoint failures mid-session, and concurrent
// no-session traffic.

func TestForeignPanicIsWrappedAndRethrown(t *testing.T) {
	type box struct{ N int }
	blow := func(b *box) {
		defer Enter(b, "box.blow")()
		b.N++
		panic("not an exception")
	}
	withSession(t, Config{Detect: true}, func(s *Session) {
		b := &box{}
		r := catchPanic(func() { blow(b) })
		if r == nil {
			t.Fatal("panic must propagate")
		}
		if _, ok := r.(string); !ok {
			t.Fatalf("original panic value must be preserved, got %T", r)
		}
		marks := s.Marks()
		if len(marks) != 1 || marks[0].Atomic {
			t.Fatalf("foreign panic must still be marked: %+v", marks)
		}
		if marks[0].Exception.Kind != fault.RuntimeError {
			t.Fatalf("foreign panic kind = %v", marks[0].Exception.Kind)
		}
	})
}

func TestRuntimePanicIsDetected(t *testing.T) {
	type box struct{ Data []int }
	oops := func(b *box) {
		defer Enter(b, "box.oops")()
		b.Data = append(b.Data, 1)
		_ = b.Data[99] // real index out of range
	}
	withSession(t, Config{Detect: true}, func(s *Session) {
		b := &box{}
		r := catchPanic(func() { oops(b) })
		if r == nil {
			t.Fatal("runtime panic must propagate")
		}
		marks := s.Marks()
		if len(marks) != 1 || marks[0].Atomic {
			t.Fatalf("runtime panic non-atomicity missed: %+v", marks)
		}
	})
}

func TestNonPointerReceiverDetection(t *testing.T) {
	// A value receiver gives the prologue a copy; detection sees two
	// identical snapshots (the copy never changes through the original) —
	// harmless, classified atomic, preserving the one-sided guarantee.
	type box struct{ N int }
	byValue := func(b box) {
		defer Enter(b, "box.byValue")()
		fault.Throw(fault.IllegalState, "box.byValue", "boom")
	}
	withSession(t, Config{Detect: true}, func(s *Session) {
		r := catchPanic(func() { byValue(box{N: 1}) })
		if r == nil {
			t.Fatal("expected escape")
		}
		if len(s.Marks()) != 1 || !s.Marks()[0].Atomic {
			t.Fatalf("value receiver must mark atomic: %+v", s.Marks())
		}
	})
}

func TestMaskWithValueReceiverSkips(t *testing.T) {
	type box struct{ N int }
	byValue := func(b box) {
		defer Enter(b, "box.byValue")()
	}
	withSession(t, Config{Mask: true, MaskAll: true}, func(s *Session) {
		byValue(box{})
		skips := s.MaskSkips()
		if len(skips) != 1 {
			t.Fatalf("non-pointer mask must be skipped: %+v", skips)
		}
		if !strings.Contains(skips[0].Err.Error(), "pointer") {
			t.Fatalf("skip reason should mention pointers: %v", skips[0].Err)
		}
	})
}

func TestEnterNilReceiverUnderAllModes(t *testing.T) {
	withSession(t, Config{Inject: true, Detect: true, Mask: true, MaskAll: true}, func(s *Session) {
		func() {
			defer Enter(nil, "free.Fn")()
		}()
		if s.Calls()["free.Fn"] != 1 {
			t.Fatal("nil-receiver calls must still be counted")
		}
		if len(s.Marks()) != 0 && s.MaskedCalls() != 0 {
			t.Fatal("nil receiver must not snapshot or checkpoint")
		}
	})
}

// reentrant exercises a method whose body installs nothing but calls
// another wrapped method on the same receiver with mutation in between;
// the unwinding path runs two epilogues over the same object.
func TestNestedSameReceiverMarks(t *testing.T) {
	type box struct{ A, B int }
	var inner, outer func(b *box)
	inner = func(b *box) {
		defer Enter(b, "box.inner")()
		b.B++
		fault.Throw(fault.IllegalState, "box.inner", "boom")
	}
	outer = func(b *box) {
		defer Enter(b, "box.outer")()
		b.A++
		inner(b)
	}
	withSession(t, Config{Detect: true}, func(s *Session) {
		b := &box{}
		catchPanic(func() { outer(b) })
		marks := s.Marks()
		if len(marks) != 2 {
			t.Fatalf("want 2 marks, got %+v", marks)
		}
		if marks[0].Method != "box.inner" || marks[0].Atomic {
			t.Fatalf("inner mark wrong: %+v", marks[0])
		}
		if marks[1].Method != "box.outer" || marks[1].Atomic {
			t.Fatalf("outer mark wrong: %+v", marks[1])
		}
		// Both marks must share the exception identity so the classifier
		// can group the propagation (see detect.Classify).
		if marks[0].Exception != marks[1].Exception {
			t.Fatal("marks of one unwind must share the exception value")
		}
	})
}

func TestMaskedNestedRollbackOrder(t *testing.T) {
	// Both inner and outer masked: inner rolls back its slice of the
	// graph first, outer then restores everything; final state must be
	// the pre-outer state.
	type box struct{ A, B int }
	inner := func(b *box) {
		defer Enter(b, "box.inner")()
		b.B = 100
		fault.Throw(fault.IllegalState, "box.inner", "boom")
	}
	outer := func(b *box) {
		defer Enter(b, "box.outer")()
		b.A = 50
		inner(b)
	}
	withSession(t, Config{Mask: true, MaskAll: true}, func(s *Session) {
		b := &box{A: 1, B: 2}
		catchPanic(func() { outer(b) })
		if b.A != 1 || b.B != 2 {
			t.Fatalf("nested rollback failed: %+v", b)
		}
		if s.Rollbacks() != 2 {
			t.Fatalf("rollbacks = %d, want 2", s.Rollbacks())
		}
	})
}

// failingStrategy refuses every capture, as a strategy does on a root it
// cannot checkpoint.
type failingStrategy struct{}

func (failingStrategy) Capture(...any) (checkpoint.Handle, error) {
	return nil, &checkpoint.UnsupportedError{Type: "root", Why: "capture refused"}
}

func TestCaptureFailureRunsUnmasked(t *testing.T) {
	// A capture fails: the call proceeds unmasked, and the skip is
	// recorded.
	type box struct{ N int }
	bump := func(b *box) {
		defer Enter(b, "box.bump")()
		b.N++
	}
	withSession(t, Config{
		Mask:     true,
		MaskAll:  true,
		Strategy: failingStrategy{},
	}, func(s *Session) {
		b := &box{}
		bump(b)
		if b.N != 1 {
			t.Fatal("method must run despite the capture failure")
		}
		if len(s.MaskSkips()) != 1 {
			t.Fatalf("capture failure must be recorded: %+v", s.MaskSkips())
		}
	})
}

func TestConcurrentNoSessionTraffic(t *testing.T) {
	// With no session installed the prologue must be safe under heavy
	// concurrency (run with -race).
	type box struct{ N int }
	work := func(b *box) {
		defer Enter(b, "box.work")()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &box{}
			for i := 0; i < 1000; i++ {
				work(b)
			}
		}()
	}
	wg.Wait()
}

func TestUninstallWrongSessionIsNoop(t *testing.T) {
	s1 := NewSession(Config{})
	s2 := NewSession(Config{})
	if err := Install(s1); err != nil {
		t.Fatal(err)
	}
	Uninstall(s2) // must not remove s1
	if Active() != s1 {
		t.Fatal("uninstalling a non-active session must be a no-op")
	}
	Uninstall(s1)
	if Active() != nil {
		t.Fatal("uninstall failed")
	}
}

func TestExceptionFreeStillCountsCalls(t *testing.T) {
	type box struct{ N int }
	quiet := func(b *box) {
		defer Enter(b, "box.quiet")()
	}
	withSession(t, Config{
		Inject:        true,
		ExceptionFree: map[string]bool{"box.quiet": true},
	}, func(s *Session) {
		b := &box{}
		quiet(b)
		quiet(b)
		if s.Calls()["box.quiet"] != 2 {
			t.Fatal("exception-free methods must still be call-counted")
		}
	})
}

func TestDetectSnapshotsAliasedReceivers(t *testing.T) {
	// Two roots sharing structure: the snapshot must cover both and spot
	// a mutation through either.
	type inner struct{ V int }
	type box struct{ I *inner }
	poke := func(b *box, shared *inner) {
		defer Enter(b, "box.poke", shared)()
		shared.V++
		fault.Throw(fault.IllegalState, "box.poke", "boom")
	}
	withSession(t, Config{Detect: true}, func(s *Session) {
		shared := &inner{}
		b := &box{I: shared}
		catchPanic(func() { poke(b, shared) })
		if len(s.Marks()) != 1 || s.Marks()[0].Atomic {
			t.Fatalf("aliased mutation missed: %+v", s.Marks())
		}
	})
}

// counterBox is the serialized-session test subject.
type counterBox struct {
	N   int
	Log []int
}

func (c *counterBox) Bump(v int) {
	defer Enter(c, "counterBox.Bump")()
	c.N += v
	c.note(v)
}

func (c *counterBox) note(v int) {
	defer Enter(c, "counterBox.note")()
	if v < 0 {
		fault.Throw(fault.IllegalArgument, "counterBox.note", "negative")
	}
	c.Log = append(c.Log, v)
}

// TestSerializedConcurrentDetection exercises §4.4's mitigation: a
// multi-goroutine workload under a Serialize session must produce
// consistent snapshots and marks (no torn graphs, no races) even though
// goroutines interleave between calls. Run with -race.
func TestSerializedConcurrentDetection(t *testing.T) {
	withSession(t, Config{Detect: true, Serialize: true}, func(s *Session) {
		shared := &counterBox{}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					shared.Bump(1)
					if i%10 == 9 {
						func() {
							defer func() { _ = recover() }()
							shared.Bump(-1) // organic failure path
						}()
					}
				}
			}(g)
		}
		wg.Wait()
		if shared.N != 4*50+4*5*(-1) {
			t.Fatalf("N = %d", shared.N)
		}
		// Every organic failure marks Bump non-atomic (N committed before
		// note threw); under serialization the comparison must never be
		// torn by another goroutine mid-snapshot, so every Bump mark is
		// non-atomic with the N diff and every note mark is atomic.
		bumps, notes := 0, 0
		for _, m := range s.Marks() {
			switch m.Method {
			case "counterBox.Bump":
				bumps++
				if m.Atomic {
					t.Fatalf("Bump must be non-atomic: %+v", m)
				}
			case "counterBox.note":
				notes++
				if !m.Atomic {
					t.Fatalf("note must be atomic (torn snapshot?): %+v", m)
				}
			}
		}
		if bumps != 20 || notes != 20 {
			t.Fatalf("marks: %d bumps, %d notes, want 20/20", bumps, notes)
		}
		if s.Calls()["counterBox.Bump"] != 220 {
			t.Fatalf("calls = %d, want 220", s.Calls()["counterBox.Bump"])
		}
	})
}

// TestSerializedNestedCallsDoNotDeadlock pins the reentrancy of the
// session lock.
func TestSerializedNestedCallsDoNotDeadlock(t *testing.T) {
	withSession(t, Config{Detect: true, Serialize: true}, func(s *Session) {
		c := &counterBox{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Bump(1) // Bump -> note nests two instrumented calls
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("nested serialized calls deadlocked")
		}
	})
}

// TestSerializedInjectionReleasesLock verifies the lock is not leaked when
// the injection fires during Enter (before the epilogue exists).
func TestSerializedInjectionReleasesLock(t *testing.T) {
	withSession(t, Config{Inject: true, InjectionPoint: 1, Detect: true, Serialize: true}, func(s *Session) {
		c := &counterBox{}
		catchPanic(func() { c.Bump(1) })
		// If the lock leaked, this second call would deadlock.
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Bump(2)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("lock leaked after injected exception")
		}
	})
}
