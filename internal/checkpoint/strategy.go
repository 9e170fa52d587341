package checkpoint

// Strategy abstracts how the masking phase checkpoints an object. The paper
// uses eager deep copies (Listing 2) and suggests copy-on-write for very
// large objects (§6.2); New's strategy picks per root between a deep copy
// and Journal, the undo-log equivalent of the latter for cooperating types.
// The masking runtime uses New; the interface lets a test count or fail
// captures.
type Strategy interface {
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

// journalHandle is the checkpoint of one Journaled root: the journal the
// root feeds while the checkpoint is open, and the journal it fed before.
type journalHandle struct {
	journal   Journal
	root      Journaled
	prev      *Journal
	closed    bool
	committed bool
}

func beginJournal(root Journaled) *journalHandle {
	h := &journalHandle{root: root}
	h.prev = root.BeginJournal(&h.journal)
	return h
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
// records and bytes to the root's enclosing journal, so a rollback of an
// enclosing checkpoint also undoes the writes of this nested, committed
// one — the same records it would hold had this checkpoint never been
// taken. The masking runtime calls it on normal (non-exceptional) return.
func (h *journalHandle) Commit() {
	if h.closed {
		return
	}
	h.detach()
	h.committed = true
	if h.prev != nil {
		h.prev.undo = append(h.prev.undo, h.journal.undo...)
		h.prev.bytes += h.journal.bytes
	}
	h.journal.undo = nil
	h.journal.bytes = 0
}

func (h *journalHandle) detach() {
	if !h.closed {
		h.closed = true
		h.root.EndJournal(h.prev)
	}
}

// parts is the checkpoint of a call whose roots are not one Journaled
// root: one journal per Journaled root, in root order, then a deep copy
// of the other roots, if any. It commits and rolls back newest first, so
// a root listed twice detaches its journals in the reverse of the order
// they were armed in and ends up feeding its enclosing journal again.
type parts []Handle

func (p parts) Rollback() error {
	var firstErr error
	for i := len(p) - 1; i >= 0; i-- {
		if err := p[i].Rollback(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (p parts) Bytes() int {
	total := 0
	for _, h := range p {
		total += h.Bytes()
	}
	return total
}

func (p parts) Commit() {
	for i := len(p) - 1; i >= 0; i-- {
		p[i].(Committer).Commit()
	}
}

// Committer is implemented by handles that need an explicit signal on
// successful return (e.g. to detach an undo journal). The masking runtime
// calls Commit when the wrapped method returns without an exception.
type Committer interface {
	Commit()
}

var _, _, _ Committer = (*Checkpoint)(nil), (*journalHandle)(nil), parts(nil)
