package core

import (
	"strings"
	"testing"

	"failatomic/internal/checkpoint"
	"failatomic/internal/fault"
)

// account is a deliberately failure non-atomic test type: Deposit mutates
// Balance before calling a helper that can throw.
type account struct {
	Balance int
	History []string
}

func (a *account) Deposit(amount int) {
	defer Enter(a, "account.Deposit")()
	a.Balance += amount
	a.log("deposit") // an injected exception here leaves Balance changed
}

// DepositSafe is the failure atomic variant: compute, call, then commit.
func (a *account) DepositSafe(amount int) {
	defer Enter(a, "account.DepositSafe")()
	next := a.Balance + amount
	a.log("deposit")
	a.Balance = next
}

func (a *account) log(entry string) {
	defer Enter(a, "account.log")()
	a.History = append(a.History, entry)
}

func withSession(t *testing.T, cfg Config, run func(s *Session)) {
	t.Helper()
	s := NewSession(cfg)
	if err := Install(s); err != nil {
		t.Fatal(err)
	}
	defer Uninstall(s)
	run(s)
}

func catchPanic(f func()) (recovered any) {
	defer func() { recovered = recover() }()
	f()
	return nil
}

func TestEnterIsNopWithoutSession(t *testing.T) {
	a := &account{}
	a.Deposit(10) // must not panic or record anything
	if a.Balance != 10 {
		t.Fatalf("Balance = %d, want 10", a.Balance)
	}
}

func TestInstallIsExclusive(t *testing.T) {
	s1 := NewSession(Config{})
	s2 := NewSession(Config{})
	if err := Install(s1); err != nil {
		t.Fatal(err)
	}
	defer Uninstall(s1)
	if err := Install(s2); err != ErrSessionActive {
		t.Fatalf("second install: got %v, want ErrSessionActive", err)
	}
	if Active() != s1 {
		t.Fatal("Active() should return the installed session")
	}
}

func TestInstallNil(t *testing.T) {
	if err := Install(nil); err == nil {
		t.Fatal("installing nil must fail")
	}
}

func TestInjectionFiresAtThreshold(t *testing.T) {
	reg := NewRegistry().Method("account", "Deposit", fault.IllegalArgument)
	// Deposit has 1 declared + 2 runtime kinds = 3 points; log has 2
	// runtime points. Point 1 is Deposit's declared kind.
	withSession(t, Config{Registry: reg, Inject: true, InjectionPoint: 1}, func(s *Session) {
		a := &account{}
		r := catchPanic(func() { a.Deposit(5) })
		exc, ok := r.(*fault.Exception)
		if !ok {
			t.Fatalf("want injected exception, got %v", r)
		}
		if exc.Kind != fault.IllegalArgument || exc.Method != "account.Deposit" || !exc.Injected {
			t.Fatalf("wrong exception: %+v", exc)
		}
		if a.Balance != 0 {
			t.Fatal("injection at method entry must precede the body")
		}
		if s.Injected() != exc {
			t.Fatal("session must record the injected exception")
		}
	})
}

func TestInjectionPointCounting(t *testing.T) {
	reg := NewRegistry().Method("account", "Deposit", fault.IllegalArgument)
	withSession(t, Config{Registry: reg, Inject: true, InjectionPoint: 0}, func(s *Session) {
		a := &account{}
		a.Deposit(5)
		// Deposit: 1 declared + 2 runtime; log: 2 runtime.
		if got := s.Point(); got != 5 {
			t.Fatalf("Point = %d, want 5", got)
		}
		if s.Injected() != nil {
			t.Fatal("threshold 0 must never fire")
		}
	})
}

func TestDetectMarksNonAtomic(t *testing.T) {
	// Inject into log's first runtime point (point 4): Deposit has already
	// incremented Balance, so Deposit must be marked non-atomic.
	withSession(t, Config{Inject: true, InjectionPoint: 4, Detect: true, Snapshot: SnapshotCapture}, func(s *Session) {
		a := &account{Balance: 1}
		r := catchPanic(func() { a.Deposit(5) })
		if r == nil {
			t.Fatal("expected the injected exception to escape")
		}
		marks := s.Marks()
		if len(marks) != 1 {
			t.Fatalf("want 1 mark (Deposit), got %d: %+v", len(marks), marks)
		}
		m := marks[0]
		if m.Method != "account.Deposit" || m.Atomic {
			t.Fatalf("Deposit must be marked non-atomic: %+v", m)
		}
		if !strings.Contains(m.Diff, "Balance") {
			t.Fatalf("diff should name Balance, got %q", m.Diff)
		}
	})
}

func TestDetectMarksAtomic(t *testing.T) {
	// Same injection point inside log, but DepositSafe has not committed
	// yet: it must be marked atomic.
	withSession(t, Config{Inject: true, InjectionPoint: 4, Detect: true}, func(s *Session) {
		a := &account{Balance: 1}
		r := catchPanic(func() { a.DepositSafe(5) })
		if r == nil {
			t.Fatal("expected the injected exception to escape")
		}
		marks := s.Marks()
		if len(marks) != 1 {
			t.Fatalf("want 1 mark, got %d", len(marks))
		}
		if !marks[0].Atomic {
			t.Fatalf("DepositSafe must be atomic, diff: %s", marks[0].Diff)
		}
		if a.Balance != 1 {
			t.Fatal("failed method must not have committed")
		}
	})
}

func TestMarkOrderIsCalleeFirst(t *testing.T) {
	// Inject into log's own point while log has already mutated History:
	// log marks first (seq 1), Deposit second (seq 2).
	type wrapper struct {
		A *account
	}
	outer := func(w *wrapper) {
		defer Enter(w, "wrapper.outer")()
		w.A.Deposit(3)
	}
	// Points: outer(2 runtime), Deposit(2), log(2). Log's points are 5,6.
	// We need the exception to originate *below* log to see log marked, so
	// instead inject at Deposit's body via log's point and check order of
	// Deposit and outer marks.
	withSession(t, Config{Inject: true, InjectionPoint: 5, Detect: true}, func(s *Session) {
		w := &wrapper{A: &account{}}
		r := catchPanic(func() { outer(w) })
		if r == nil {
			t.Fatal("expected escape")
		}
		marks := s.Marks()
		if len(marks) != 2 {
			t.Fatalf("want marks for Deposit and outer, got %+v", marks)
		}
		if marks[0].Method != "account.Deposit" || marks[0].Seq != 1 {
			t.Fatalf("deepest method must mark first: %+v", marks[0])
		}
		if marks[1].Method != "wrapper.outer" || marks[1].Seq != 2 {
			t.Fatalf("caller must mark second: %+v", marks[1])
		}
		if marks[0].Atomic {
			t.Fatal("Deposit mutated Balance before log threw: non-atomic")
		}
		if marks[1].Atomic {
			t.Fatal("outer's receiver graph includes the account: non-atomic")
		}
	})
}

func TestOrganicExceptionsAreMarked(t *testing.T) {
	type thrower struct{ N int }
	boom := func(th *thrower) {
		defer Enter(th, "thrower.boom")()
		th.N++
		fault.Throw(fault.IllegalState, "thrower.boom", "organic failure")
	}
	withSession(t, Config{Detect: true}, func(s *Session) {
		th := &thrower{}
		r := catchPanic(func() { boom(th) })
		exc := fault.From(r)
		if exc.Kind != fault.IllegalState || exc.Injected {
			t.Fatalf("organic exception expected, got %+v", exc)
		}
		marks := s.Marks()
		if len(marks) != 1 || marks[0].Atomic {
			t.Fatalf("organic non-atomicity must be marked: %+v", marks)
		}
	})
}

func TestMaskingRollsBack(t *testing.T) {
	withSession(t, Config{
		Inject:         true,
		InjectionPoint: 4, // inside log
		Detect:         true,
		Mask:           true,
		MaskMethods:    map[string]bool{"account.Deposit": true},
	}, func(s *Session) {
		a := &account{Balance: 1}
		r := catchPanic(func() { a.Deposit(5) })
		if r == nil {
			t.Fatal("masking must re-throw the exception")
		}
		if a.Balance != 1 {
			t.Fatalf("masking must roll Balance back, got %d", a.Balance)
		}
		marks := s.Marks()
		if len(marks) != 1 || !marks[0].Atomic || !marks[0].Masked {
			t.Fatalf("masked method must observe as atomic: %+v", marks)
		}
		if s.MaskedCalls() != 1 || s.Rollbacks() != 1 {
			t.Fatalf("mask counters wrong: %d/%d", s.MaskedCalls(), s.Rollbacks())
		}
	})
}

func TestMaskingCommitsOnSuccess(t *testing.T) {
	withSession(t, Config{
		Mask:        true,
		MaskMethods: map[string]bool{"account.Deposit": true},
	}, func(s *Session) {
		a := &account{}
		a.Deposit(5)
		if a.Balance != 5 {
			t.Fatalf("successful masked call must keep its effect, got %d", a.Balance)
		}
		if s.Rollbacks() != 0 {
			t.Fatal("no rollback expected on success")
		}
	})
}

type uncheckpointable struct {
	Visible int
	secret  int
}

func (u *uncheckpointable) Touch() {
	defer Enter(u, "uncheckpointable.Touch")()
	u.Visible++
}

func TestMaskSkipRecorded(t *testing.T) {
	withSession(t, Config{
		Mask:        true,
		MaskMethods: map[string]bool{"uncheckpointable.Touch": true},
	}, func(s *Session) {
		u := &uncheckpointable{secret: 1}
		u.Touch()
		skips := s.MaskSkips()
		if len(skips) != 1 || skips[0].Method != "uncheckpointable.Touch" {
			t.Fatalf("mask skip must be recorded: %+v", skips)
		}
		if u.Visible != 1 {
			t.Fatal("method must still run unmasked")
		}
	})
}

func TestExceptionFreeSkipsInjection(t *testing.T) {
	withSession(t, Config{
		Inject:         true,
		InjectionPoint: 1,
		ExceptionFree:  map[string]bool{"account.Deposit": true, "account.log": true},
	}, func(s *Session) {
		a := &account{}
		a.Deposit(5)
		if s.Injected() != nil {
			t.Fatal("exception-free methods must get no injection points")
		}
		if s.Point() != 0 {
			t.Fatalf("no points expected, got %d", s.Point())
		}
	})
}

func TestConstructorInjection(t *testing.T) {
	reg := NewRegistry().Ctor("account", "NewAccount", fault.CapacityExceeded)
	newAccount := func() *account {
		defer Enter(nil, "NewAccount")()
		return &account{}
	}
	withSession(t, Config{Registry: reg, Inject: true, InjectionPoint: 1}, func(s *Session) {
		r := catchPanic(func() { newAccount() })
		exc := fault.From(r)
		if !exc.Injected || exc.Kind != fault.CapacityExceeded {
			t.Fatalf("constructor injection failed: %+v", exc)
		}
	})
	withSession(t, Config{Registry: reg, Inject: true, InjectionPoint: 0}, func(s *Session) {
		newAccount()
		if s.Calls()["NewAccount"] != 1 {
			t.Fatal("constructor calls must be counted")
		}
	})
}

func TestExtraRootsInComparison(t *testing.T) {
	type out struct{ Sum int }
	addInto := func(a *account, dst *out) {
		defer Enter(a, "account.AddInto", dst)()
		dst.Sum = a.Balance
		fault.Throw(fault.IllegalState, "account.AddInto", "after writing dst")
	}
	withSession(t, Config{Detect: true, Snapshot: SnapshotCapture}, func(s *Session) {
		a := &account{Balance: 3}
		dst := &out{}
		r := catchPanic(func() { addInto(a, dst) })
		if r == nil {
			t.Fatal("expected escape")
		}
		marks := s.Marks()
		if len(marks) != 1 || marks[0].Atomic {
			t.Fatalf("mutation of by-reference argument must be detected: %+v", marks)
		}
		if !strings.Contains(marks[0].Diff, "Sum") {
			t.Fatalf("diff should point at dst.Sum: %q", marks[0].Diff)
		}
	})
}

func TestUndoLogStrategyInSession(t *testing.T) {
	// A Journaled receiver is masked with its undo log.
	withSession(t, Config{
		Inject:         true,
		InjectionPoint: 3, // first runtime point of jc.Bump's callee? see below
		Detect:         true,
		Mask:           true,
		MaskAll:        true,
	}, func(s *Session) {
		jc := newJournaledThing()
		r := catchPanic(func() { jc.Bump() })
		if r == nil {
			t.Fatal("expected escape")
		}
		if jc.Value != 0 {
			t.Fatalf("undo log must roll back, Value=%d", jc.Value)
		}
	})
}

// journaledThing implements checkpoint.Journaled for the session test.
type journaledThing struct {
	Value int

	journal *checkpoint.Journal
}

func newJournaledThing() *journaledThing { return &journaledThing{} }

func (j *journaledThing) BeginJournal(jn *checkpoint.Journal) *checkpoint.Journal {
	prev := j.journal
	j.journal = jn
	return prev
}

func (j *journaledThing) EndJournal(prev *checkpoint.Journal) { j.journal = prev }

func (j *journaledThing) Bump() {
	defer Enter(j, "journaledThing.Bump")()
	old := j.Value
	j.journal.Record(8, func() { j.Value = old })
	j.Value++
	j.helper()
}

func (j *journaledThing) helper() {
	defer Enter(j, "journaledThing.helper")()
}

func TestRegistryValidate(t *testing.T) {
	good := NewRegistry().Method("C", "M", fault.IOError)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := NewRegistry().Method("C", "M", fault.IOError, fault.IOError)
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate kinds must be rejected")
	}
}

func TestRegistryClassOf(t *testing.T) {
	reg := NewRegistry().Ctor("Account", "NewAccount")
	tests := []struct {
		give string
		want string
	}{
		{give: "NewAccount", want: "Account"},
		{give: "Foo.Bar", want: "Foo"},
		{give: "Loose", want: "Loose"},
	}
	for _, tt := range tests {
		if got := reg.ClassOf(tt.give); got != tt.want {
			t.Errorf("ClassOf(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestRegistryMerge(t *testing.T) {
	a := NewRegistry().Method("A", "M1")
	b := NewRegistry().Method("B", "M2")
	a.Merge(b).Merge(nil)
	if a.Len() != 2 || a.Info("B.M2") == nil {
		t.Fatalf("merge failed: %v", a.Names())
	}
}
