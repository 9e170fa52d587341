package checkpoint

import (
	"testing"

	"failatomic/internal/objgraph"
)

func TestDeepCopyStrategy(t *testing.T) {
	s := newState()
	before := objgraph.Capture(s)
	h, err := New().Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(*Checkpoint); !ok {
		t.Fatalf("a root that is not Journaled got a %T, want a deep copy", h)
	}
	s.Count = 77
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(s)); d != "" {
		t.Fatalf("deepcopy rollback failed: %s", d)
	}
}

// journaledCounter is a minimal Journaled type: every mutation records its
// own undo action.
type journaledCounter struct {
	Value int
	Log   []string

	journal *Journal
}

func (c *journaledCounter) BeginJournal(j *Journal) *Journal {
	prev := c.journal
	c.journal = j
	return prev
}

func (c *journaledCounter) EndJournal(prev *Journal) { c.journal = prev }

func (c *journaledCounter) Set(v int) {
	old := c.Value
	c.journal.Record(8, func() { c.Value = old })
	c.Value = v
}

func (c *journaledCounter) Append(s string) {
	n := len(c.Log)
	c.journal.Record(len(s), func() { c.Log = c.Log[:n] })
	c.Log = append(c.Log, s)
}

func TestUndoLogRollback(t *testing.T) {
	c := &journaledCounter{Value: 1, Log: []string{"start"}}
	h, err := New().Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(*journalHandle); !ok {
		t.Fatalf("a lone Journaled root got a %T, want its journal handle", h)
	}
	c.Set(10)
	c.Set(20)
	c.Append("x")
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c.Value != 1 {
		t.Fatalf("undo log must roll back in LIFO order, Value=%d", c.Value)
	}
	if len(c.Log) != 1 || c.Log[0] != "start" {
		t.Fatalf("log rollback failed: %v", c.Log)
	}
	if c.journal != nil {
		t.Fatal("journal must be detached after rollback")
	}
}

func TestUndoLogCommitKeepsChanges(t *testing.T) {
	c := &journaledCounter{Value: 1}
	h, err := New().Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(5)
	h.(Committer).Commit()
	if c.Value != 5 {
		t.Fatalf("commit must keep changes, Value=%d", c.Value)
	}
	if c.journal != nil {
		t.Fatal("journal must be detached after commit")
	}
}

func TestUndoLogNesting(t *testing.T) {
	c := &journaledCounter{Value: 1}
	outer, err := New().Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(2)
	inner, err := New().Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(3)
	if err := inner.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c.Value != 2 {
		t.Fatalf("inner rollback must restore to 2, got %d", c.Value)
	}
	c.Set(4)
	if err := outer.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c.Value != 1 {
		t.Fatalf("outer rollback must restore to 1, got %d", c.Value)
	}
}

// journaledPair has two journaled fields, so a test can tell the writes of
// an enclosing call from those of a nested one.
type journaledPair struct {
	V, W int

	journal *Journal
}

func (p *journaledPair) BeginJournal(j *Journal) *Journal {
	prev := p.journal
	p.journal = j
	return prev
}

func (p *journaledPair) EndJournal(prev *Journal) { p.journal = prev }

func (p *journaledPair) setV(v int) {
	old := p.V
	p.journal.Record(8, func() { p.V = old })
	p.V = v
}

func (p *journaledPair) setW(w int) {
	old := p.W
	p.journal.Record(8, func() { p.W = old })
	p.W = w
}

// TestUndoLogNestedCommitHandsRecordsOut: a nested checkpoint that commits
// hands its undo records to the enclosing journal, so the enclosing
// rollback also undoes the fields written only inside the nested call, and
// the enclosing checkpoint holds exactly the records (and bytes) it would
// have recorded had the nested call not been checkpointed. A nested
// checkpoint that lists its root twice hands its records out too, and
// leaves the root feeding the enclosing journal.
func TestUndoLogNestedCommitHandsRecordsOut(t *testing.T) {
	for _, twice := range []bool{false, true} {
		x := &journaledPair{}
		outer, err := New().Capture(x)
		if err != nil {
			t.Fatal(err)
		}
		x.setV(1)
		roots := []any{x}
		if twice {
			roots = append(roots, x)
		}
		inner, err := New().Capture(roots...)
		if err != nil {
			t.Fatal(err)
		}
		x.setW(5)
		inner.(Committer).Commit()
		if x.journal != &outer.(*journalHandle).journal {
			t.Fatalf("twice=%v: the committed root feeds %p, not the enclosing journal", twice, x.journal)
		}
		if inner.Bytes() != 0 {
			t.Fatalf("twice=%v: committed journal still reports %d bytes", twice, inner.Bytes())
		}
		if outer.Bytes() != 16 {
			t.Fatalf("twice=%v: enclosing journal covers %d bytes, want 16 (its own write and the nested one)", twice, outer.Bytes())
		}
		if err := outer.Rollback(); err != nil {
			t.Fatal(err)
		}
		if x.V != 0 || x.W != 0 {
			t.Fatalf("twice=%v: after the enclosing rollback V=%d W=%d, want 0 0", twice, x.V, x.W)
		}
		if x.journal != nil {
			t.Fatalf("twice=%v: journal must be detached after the enclosing rollback", twice)
		}
	}
}

// TestUndoLogCommitKeepsRecordsOfOtherEnclosures: a nested checkpoint
// over roots with different enclosing journals hands each root's records
// to its own enclosing journal, so each enclosing rollback undoes exactly
// its root's writes; a root with no enclosing checkpoint keeps its write.
func TestUndoLogCommitKeepsRecordsOfOtherEnclosures(t *testing.T) {
	a, b, c := &journaledPair{}, &journaledPair{}, &journaledPair{}
	outerA, err := New().Capture(a)
	if err != nil {
		t.Fatal(err)
	}
	outerB, err := New().Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := New().Capture(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	a.setV(1)
	b.setV(2)
	b.setW(3)
	c.setV(4)
	inner.(Committer).Commit()
	if outerA.Bytes() != 8 || outerB.Bytes() != 16 {
		t.Fatalf("enclosing journals cover %d and %d bytes, want 8 and 16", outerA.Bytes(), outerB.Bytes())
	}
	if a.journal != &outerA.(*journalHandle).journal || b.journal != &outerB.(*journalHandle).journal || c.journal != nil {
		t.Fatalf("after the commit the roots feed %p %p %p, want their enclosing journals", a.journal, b.journal, c.journal)
	}
	if err := outerB.Rollback(); err != nil {
		t.Fatal(err)
	}
	if *b != (journaledPair{}) || a.V != 1 {
		t.Fatalf("b's enclosing rollback left a.V=%d b=%+v, want 1 and zero", a.V, *b)
	}
	if err := outerA.Rollback(); err != nil {
		t.Fatal(err)
	}
	if a.V != 0 || c.V != 4 {
		t.Fatalf("a's enclosing rollback left a.V=%d c.V=%d, want 0 and 4", a.V, c.V)
	}
}

func TestJournalStats(t *testing.T) {
	var j Journal
	j.Record(10, func() {})
	j.Record(5, func() {})
	if j.Len() != 2 || j.Bytes() != 15 {
		t.Fatalf("journal stats wrong: len=%d bytes=%d", j.Len(), j.Bytes())
	}
	j.Rollback()
	if j.Len() != 0 || j.Bytes() != 0 {
		t.Fatal("rollback must clear the journal")
	}
	var nilJournal *Journal
	nilJournal.Record(1, func() {}) // must not panic
	if nilJournal.Len() != 0 || nilJournal.Bytes() != 0 {
		t.Fatal("nil journal must be inert")
	}
}
