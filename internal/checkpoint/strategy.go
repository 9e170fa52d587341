package checkpoint

import "fmt"

// Strategy abstracts how the masking phase checkpoints an object. The paper
// uses eager deep copies (Listing 2) and suggests copy-on-write for very
// large objects (§6.2); DeepCopy implements the former and Journal the
// undo-log equivalent of the latter for cooperating types.
type Strategy interface {
	// Name identifies the strategy in reports and benchmarks.
	Name() string
	// Capture starts a checkpoint over the given roots.
	Capture(roots ...any) (Handle, error)
}

// Handle is an open checkpoint that can be rolled back once.
type Handle interface {
	// Rollback reinstates the captured state. It is final: Commit on a
	// rolled-back handle does nothing, and a deep copy hands its clone
	// objects and bookkeeping back to its strategy for later captures to
	// reuse, as on Commit, so restoring it again fails.
	Rollback() error
	// Bytes reports the approximate checkpoint payload size.
	Bytes() int
}

var _ Handle = (*Checkpoint)(nil)

// Journaled is implemented by types that record undo actions into a Journal
// while they mutate, enabling O(bytes written) rollback instead of
// O(object size) eager copying — the paper's copy-on-write suggestion.
type Journaled interface {
	// BeginJournal installs a journal that the type must feed undo records
	// until it is detached. It returns the previously installed journal (or
	// nil) so nested checkpoints can be stacked.
	BeginJournal(j *Journal) (prev *Journal)
	// EndJournal reinstates the previous journal returned by BeginJournal.
	EndJournal(prev *Journal)
}

// Journal accumulates undo actions in LIFO order.
type Journal struct {
	undo  []func()
	bytes int
}

// Record appends an undo action covering approximately n payload bytes.
func (j *Journal) Record(n int, undo func()) {
	if j == nil {
		return
	}
	j.undo = append(j.undo, undo)
	j.bytes += n
}

// Len returns the number of recorded undo actions.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return len(j.undo)
}

// Bytes returns the approximate payload bytes covered by the journal.
func (j *Journal) Bytes() int {
	if j == nil {
		return 0
	}
	return j.bytes
}

// Rollback runs the undo actions newest-first and clears the journal.
func (j *Journal) Rollback() {
	for i := len(j.undo) - 1; i >= 0; i-- {
		j.undo[i]()
	}
	j.undo = nil
	j.bytes = 0
}

// UndoLog returns the journal-based strategy. Capture fails with an
// UnsupportedError for roots that do not implement Journaled, so callers
// can fall back to DeepCopy.
func UndoLog() Strategy { return undoLogStrategy{} }

type undoLogStrategy struct{}

func (undoLogStrategy) Name() string { return "undolog" }

func (undoLogStrategy) Capture(roots ...any) (Handle, error) {
	h := &journalHandle{journal: &Journal{}}
	for i, r := range roots {
		t, ok := r.(Journaled)
		if !ok {
			return nil, &UnsupportedError{
				Type: fmt.Sprintf("%T", r),
				Why:  fmt.Sprintf("root %d does not implement checkpoint.Journaled", i),
			}
		}
		prev := t.BeginJournal(h.journal)
		h.targets = append(h.targets, journalTarget{owner: t, prev: prev})
	}
	return h, nil
}

type journalTarget struct {
	owner Journaled
	prev  *Journal
}

type journalHandle struct {
	journal   *Journal
	targets   []journalTarget
	closed    bool
	committed bool
}

// Rollback undoes the journaled writes, or returns errCommitted without
// writing anything once Commit has handed the records on.
func (h *journalHandle) Rollback() error {
	if h.committed {
		return errCommitted
	}
	h.detach()
	h.journal.Rollback()
	return nil
}

func (h *journalHandle) Bytes() int { return h.journal.Bytes() }

// Commit detaches the journal without rolling back and hands its undo
// records and bytes to the enclosing journal, so a rollback of an enclosing
// checkpoint also undoes the writes of this nested, committed one — the
// same records it would hold had this checkpoint never been taken. The
// masking runtime calls it on normal (non-exceptional) return.
//
// Records are handed over only when every root had the same enclosing
// journal (always so for one root, and Auto captures each root on its
// own). A journal cannot tell which root wrote a record, so when the
// roots' enclosing journals differ the records are dropped, and those
// enclosing rollbacks keep this call's writes.
func (h *journalHandle) Commit() {
	if h.closed {
		return
	}
	h.detach()
	h.committed = true
	if outer := h.enclosing(); outer != nil {
		outer.undo = append(outer.undo, h.journal.undo...)
		outer.bytes += h.journal.bytes
	}
	h.journal.undo = nil
	h.journal.bytes = 0
}

// enclosing returns the journal every root had before this checkpoint, or
// nil when there was none or the roots had different ones. A root listed
// twice reports this handle's own journal as its previous one; that entry
// is skipped.
func (h *journalHandle) enclosing() *Journal {
	var outer *Journal
	seen := false
	for _, t := range h.targets {
		switch {
		case t.prev == h.journal:
		case !seen:
			outer, seen = t.prev, true
		case t.prev != outer:
			return nil
		}
	}
	return outer
}

func (h *journalHandle) detach() {
	if h.closed {
		return
	}
	h.closed = true
	for i := len(h.targets) - 1; i >= 0; i-- {
		h.targets[i].owner.EndJournal(h.targets[i].prev)
	}
}

// Committer is implemented by handles that need an explicit signal on
// successful return (e.g. to detach an undo journal). The masking runtime
// calls Commit when the wrapped method returns without an exception.
type Committer interface {
	Commit()
}

var _ Committer = (*journalHandle)(nil)
