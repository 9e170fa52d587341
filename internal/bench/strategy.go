package bench

import (
	"testing"

	"failatomic/internal/checkpoint"
)

// The strategy suite measures the per-call cost of each Item-76 masking
// rung on a synthetic versioned list, extending the paper's Figure 3/4
// overhead story to the strategy-resolved repair pipeline: reordering is
// free (the same statements run in a different order), a temp-copy swap
// costs two scalar saves and a deferred closure, and the checkpoint rung
// pays for a capture per call — deep copy proportional to the object,
// undo log proportional to the write set.

// strategyCell and strategyList are the synthetic subject.
type strategyCell struct {
	V    int
	Next *strategyCell
}

type strategyList struct {
	Head    *strategyCell
	Count   int
	Version int
}

func newStrategyList(n int) *strategyList {
	l := &strategyList{}
	for i := 0; i < n; i++ {
		l.Head = &strategyCell{V: i, Next: l.Head}
		l.Count++
	}
	return l
}

// insertBumpFirst is the original failure non-atomic shape: bump, then
// (potentially throwing) validation, then the link-in.
func (l *strategyList) insertBumpFirst(v int) {
	l.Version++
	if v < 0 {
		panic("rejected")
	}
	l.Head = &strategyCell{V: v, Next: l.Head}
	l.Count++
}

// insertReordered is the reorder rung's output: validate before mutating.
func (l *strategyList) insertReordered(v int) {
	if v < 0 {
		panic("rejected")
	}
	l.Version++
	l.Head = &strategyCell{V: v, Next: l.Head}
	l.Count++
}

// journaledList wraps strategyList with an undo journal for the undo-log
// checkpoint measurement.
type journaledList struct {
	strategyList
	journal *checkpoint.Journal
}

func (l *journaledList) BeginJournal(j *checkpoint.Journal) *checkpoint.Journal {
	prev := l.journal
	l.journal = j
	return prev
}

func (l *journaledList) EndJournal(prev *checkpoint.Journal) { l.journal = prev }

func (l *journaledList) insert(v int) {
	head, count, version := l.Head, l.Count, l.Version
	l.journal.Record(24, func() { l.Head, l.Count, l.Version = head, count, version })
	l.insertBumpFirst(v)
}

// strategyListSize keeps the deep-copy cost visible without dominating
// the suite's runtime.
const strategyListSize = 64

// StrategySuite measures each rung and returns the results in ladder
// order (cheapest first). Unlike SnapshotSuite it needs no context: every
// benchmark is a tight in-process loop.
func StrategySuite() []Result {
	return []Result{
		measure("strategy/none/insert", func(b *testing.B) {
			l := newStrategyList(strategyListSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.insertBumpFirst(i)
			}
		}),
		measure("strategy/reorder/insert", func(b *testing.B) {
			l := newStrategyList(strategyListSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.insertReordered(i)
			}
		}),
		measure("strategy/tempswap/insert", func(b *testing.B) {
			l := newStrategyList(strategyListSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				func() {
					savedCount, savedVersion := l.Count, l.Version
					defer func() {
						if r := recover(); r != nil {
							l.Count, l.Version = savedCount, savedVersion
							panic(r)
						}
					}()
					l.insertBumpFirst(i)
				}()
			}
		}),
		measure("strategy/checkpoint/deepcopy/insert", func(b *testing.B) {
			strategy := checkpoint.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l := newStrategyList(strategyListSize)
				b.StartTimer()
				h, err := strategy.Capture(l)
				if err != nil {
					b.Fatal(err)
				}
				l.insertBumpFirst(i)
				if c, ok := h.(checkpoint.Committer); ok {
					c.Commit()
				}
			}
		}),
		measureDeepCopyRollback(),
		measure("strategy/checkpoint/undolog/insert", func(b *testing.B) {
			strategy := checkpoint.New()
			l := &journaledList{strategyList: *newStrategyList(strategyListSize)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := strategy.Capture(l)
				if err != nil {
					b.Fatal(err)
				}
				l.insert(i)
				if c, ok := h.(checkpoint.Committer); ok {
					c.Commit()
				}
			}
		}),
	}
}

// measureDeepCopyRollback is the deep-copy rung's exceptional path: a
// capture, an insert and the rollback that undoes it, on one list through
// one strategy, so each capture reuses what the previous rollback handed
// back. The snapshot suite runs it too, so fabench -diff-against pins its
// allocations.
func measureDeepCopyRollback() Result {
	return measure("strategy/checkpoint/deepcopy/rollback", func(b *testing.B) {
		strategy := checkpoint.New()
		l := newStrategyList(strategyListSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := strategy.Capture(l)
			if err != nil {
				b.Fatal(err)
			}
			l.insertBumpFirst(i)
			if err := h.Rollback(); err != nil {
				b.Fatal(err)
			}
		}
		if l.Count != strategyListSize {
			b.Fatalf("list holds %d cells after rollbacks, want %d", l.Count, strategyListSize)
		}
	})
}
