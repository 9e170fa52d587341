package failatomic_test

import (
	"testing"

	"failatomic"
)

type guardedPair struct {
	A, B int
	Next *guardedPair
}

func TestGuardRollsBackOnPanic(t *testing.T) {
	p := &guardedPair{A: 1, B: 2, Next: &guardedPair{A: 10}}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate through Guard")
			}
		}()
		defer failatomic.Guard(p)()
		p.A = 99
		p.Next.A = 77
		panic("boom")
	}()
	if p.A != 1 || p.B != 2 || p.Next.A != 10 {
		t.Errorf("Guard did not roll back: %+v next %+v", p, p.Next)
	}
}

func TestGuardCommitsOnReturn(t *testing.T) {
	p := &guardedPair{A: 1}
	func() {
		defer failatomic.Guard(p)()
		p.A = 5
	}()
	if p.A != 5 {
		t.Errorf("Guard rolled back a normal return: %+v", p)
	}
}

// journaledBox exercises Guard's auto strategy selection: a Journaled root
// must be captured by undo log, not deep copy.
type journaledBox struct {
	N       int
	journal *failatomic.Journal
}

func (b *journaledBox) BeginJournal(j *failatomic.Journal) *failatomic.Journal {
	prev := b.journal
	b.journal = j
	return prev
}

func (b *journaledBox) EndJournal(prev *failatomic.Journal) { b.journal = prev }

func (b *journaledBox) set(n int) {
	old := b.N
	b.journal.Record(8, func() { b.N = old })
	b.N = n
}

func TestGuardUsesUndoLogForJournaled(t *testing.T) {
	b := &journaledBox{N: 1}
	func() {
		defer func() { _ = recover() }()
		defer failatomic.Guard(b)()
		if b.journal == nil {
			t.Error("Guard did not arm the journal of a Journaled root")
		}
		b.set(42)
		panic("boom")
	}()
	if b.N != 1 {
		t.Errorf("undo-log rollback failed: N = %d", b.N)
	}
	if b.journal != nil {
		t.Error("journal still armed after rollback")
	}
}

// TestGuardRootListedTwiceCommits: an inner Guard that lists a Journaled
// root twice and commits leaves the root feeding the outer Guard's
// journal, so the outer rollback undoes the inner region's write and the
// one after it.
func TestGuardRootListedTwiceCommits(t *testing.T) {
	b := &journaledBox{N: 1}
	func() {
		defer func() { _ = recover() }()
		defer failatomic.Guard(b)()
		func() {
			defer failatomic.Guard(b, b)()
			b.set(2)
		}()
		b.set(3)
		panic("boom")
	}()
	if b.N != 1 {
		t.Errorf("outer rollback left N = %d, want 1", b.N)
	}
	if b.journal != nil {
		t.Error("journal still armed after rollback")
	}
}
