package harness

import (
	"context"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
)

// Method handles of the instrumented methods below.
var (
	mJournalTargetWork       = core.Method("JournalTarget.Work")
	mJournalTargetWorkMasked = core.Method("JournalTarget.WorkMasked")
)

// JournalTarget is the checkpoint.Journaled twin of BenchTarget, used for
// the undo-log ablation: instead of eagerly deep-copying the payload, the
// masked method records undo entries only for the words it writes, so
// rollback cost is O(bytes written) rather than O(object size) — the
// paper's copy-on-write suggestion (§6.2).
type JournalTarget struct {
	P    *Payload
	Sink uint64

	journal *checkpoint.Journal
}

var _ checkpoint.Journaled = (*JournalTarget)(nil)

// NewJournalTarget returns a journaled target with objectBytes of payload.
func NewJournalTarget(objectBytes int) *JournalTarget {
	data := make([]byte, objectBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return &JournalTarget{P: &Payload{Data: data}}
}

// BeginJournal implements checkpoint.Journaled.
func (t *JournalTarget) BeginJournal(j *checkpoint.Journal) *checkpoint.Journal {
	prev := t.journal
	t.journal = j
	return prev
}

// EndJournal implements checkpoint.Journaled.
func (t *JournalTarget) EndJournal(prev *checkpoint.Journal) { t.journal = prev }

// Work is the unwrapped method.
func (t *JournalTarget) Work() {
	defer mJournalTargetWork.Enter(t)()
	t.compute()
}

// WorkMasked is the masked method; it journals the single word it writes.
func (t *JournalTarget) WorkMasked() {
	defer mJournalTargetWorkMasked.Enter(t)()
	old := t.Sink
	t.journal.Record(8, func() { t.Sink = old })
	t.compute()
}

func (t *JournalTarget) compute() {
	x := t.Sink ^ 0x9e3779b97f4a7c15
	for i := 0; i < workIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t.Sink = x
}

// Figure5Journal runs the Figure 5 sweep on JournalTarget, whose masked
// calls are journaled instead of deep-copied; its overhead should stay
// flat across object sizes, in contrast to the deep copy.
func Figure5Journal(ctx context.Context, cfg Figure5Config) ([]OverheadPoint, error) {
	return runSweep(ctx, cfg, sweep{
		masked: "JournalTarget.WorkMasked",
		target: func(objectBytes int) (sweepTarget, int, error) {
			// One journaled word per masked call.
			return NewJournalTarget(objectBytes), 8, nil
		},
	})
}
