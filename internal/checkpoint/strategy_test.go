package checkpoint

import (
	"testing"

	"failatomic/internal/objgraph"
)

func TestDeepCopyStrategy(t *testing.T) {
	s := newState()
	before := objgraph.Capture(s)
	h, err := DeepCopy().Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Count = 77
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(s)); d != "" {
		t.Fatalf("deepcopy rollback failed: %s", d)
	}
	if DeepCopy().Name() != "deepcopy" {
		t.Fatal("strategy name mismatch")
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
	h, err := UndoLog().Capture(c)
	if err != nil {
		t.Fatal(err)
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
	h, err := UndoLog().Capture(c)
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

func TestUndoLogRejectsNonJournaled(t *testing.T) {
	p := &point{}
	if _, err := UndoLog().Capture(p); err == nil {
		t.Fatal("non-Journaled root must be rejected")
	}
}

func TestUndoLogNesting(t *testing.T) {
	c := &journaledCounter{Value: 1}
	outer, err := UndoLog().Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(2)
	inner, err := UndoLog().Capture(c)
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
// checkpoint that lists its root twice hands its records out too.
func TestUndoLogNestedCommitHandsRecordsOut(t *testing.T) {
	for _, twice := range []bool{false, true} {
		x := &journaledPair{}
		outer, err := UndoLog().Capture(x)
		if err != nil {
			t.Fatal(err)
		}
		x.setV(1)
		roots := []any{x}
		if twice {
			roots = append(roots, x)
		}
		inner, err := UndoLog().Capture(roots...)
		if err != nil {
			t.Fatal(err)
		}
		x.setW(5)
		inner.(Committer).Commit()
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

// TestUndoLogCommitKeepsRecordsOfOtherEnclosures: roots with different
// enclosing journals cannot split the records between them; the commit
// drops them and leaves both enclosing journals as they were.
func TestUndoLogCommitKeepsRecordsOfOtherEnclosures(t *testing.T) {
	a, b := &journaledPair{}, &journaledPair{}
	outer, err := UndoLog().Capture(a)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := UndoLog().Capture(a, b)
	if err != nil {
		t.Fatal(err)
	}
	a.setV(1)
	b.setV(2)
	inner.(Committer).Commit()
	if outer.Bytes() != 0 || a.journal != outer.(*journalHandle).journal || b.journal != nil {
		t.Fatalf("commit with mixed enclosures: outer bytes %d, journals a=%p b=%p", outer.Bytes(), a.journal, b.journal)
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
