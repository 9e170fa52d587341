package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mLinkedListFixedNew                 = core.Method("LinkedListFixed.New")
	mLinkedListFixedSize                = core.Method("LinkedListFixed.Size")
	mLinkedListFixedIsEmpty             = core.Method("LinkedListFixed.IsEmpty")
	mLinkedListFixedFirst               = core.Method("LinkedListFixed.First")
	mLinkedListFixedLast                = core.Method("LinkedListFixed.Last")
	mLinkedListFixedAt                  = core.Method("LinkedListFixed.At")
	mLinkedListFixedInsertFirst         = core.Method("LinkedListFixed.InsertFirst")
	mLinkedListFixedInsertLast          = core.Method("LinkedListFixed.InsertLast")
	mLinkedListFixedInsertAt            = core.Method("LinkedListFixed.InsertAt")
	mLinkedListFixedRemoveFirst         = core.Method("LinkedListFixed.RemoveFirst")
	mLinkedListFixedRemoveLast          = core.Method("LinkedListFixed.RemoveLast")
	mLinkedListFixedRemoveAt            = core.Method("LinkedListFixed.RemoveAt")
	mLinkedListFixedRemoveOne           = core.Method("LinkedListFixed.RemoveOne")
	mLinkedListFixedRemoveAll           = core.Method("LinkedListFixed.RemoveAll")
	mLinkedListFixedReplaceAt           = core.Method("LinkedListFixed.ReplaceAt")
	mLinkedListFixedReplaceAll          = core.Method("LinkedListFixed.ReplaceAll")
	mLinkedListFixedIncludes            = core.Method("LinkedListFixed.Includes")
	mLinkedListFixedIndexOf             = core.Method("LinkedListFixed.IndexOf")
	mLinkedListFixedClear               = core.Method("LinkedListFixed.Clear")
	mLinkedListFixedToSlice             = core.Method("LinkedListFixed.ToSlice")
	mLinkedListFixedcheckIndex          = core.Method("LinkedListFixed.checkIndex")
	mLinkedListFixedcheckIndexInclusive = core.Method("LinkedListFixed.checkIndexInclusive")
	mLinkedListFixedscreen              = core.Method("LinkedListFixed.screen")
)

// LinkedListFixed is the repaired LinkedList of the paper's §6.1
// experiment: the same API after applying the "trivial modifications"
// suggested by the detection report — validate and screen *before*
// mutating, bump Version and Count last, stage link rewiring in locals.
// Only the inherently partial-progress methods (RemoveAll, ReplaceAll)
// remain failure non-atomic; those are the ones left for the automatic
// masking phase.
type LinkedListFixed struct {
	Head    *LLCell
	Count   int
	Version int
	Screen  Screener
}

// NewLinkedListFixed returns an empty repaired list.
func NewLinkedListFixed(screen Screener) *LinkedListFixed {
	defer mLinkedListFixedNew.Enter(nil)()
	return &LinkedListFixed{Screen: screen}
}

// Size returns the number of elements.
func (l *LinkedListFixed) Size() int {
	defer mLinkedListFixedSize.Enter(l)()
	return l.Count
}

// IsEmpty reports whether the list has no elements.
func (l *LinkedListFixed) IsEmpty() bool {
	defer mLinkedListFixedIsEmpty.Enter(l)()
	return l.Count == 0
}

// First returns the first element; it throws NoSuchElement when empty.
func (l *LinkedListFixed) First() Item {
	defer mLinkedListFixedFirst.Enter(l)()
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "LinkedListFixed.First", "empty list")
	}
	return l.Head.Element
}

// Last returns the last element; it throws NoSuchElement when empty.
func (l *LinkedListFixed) Last() Item {
	defer mLinkedListFixedLast.Enter(l)()
	cell := l.Head
	if cell == nil {
		fault.Throw(fault.NoSuchElement, "LinkedListFixed.Last", "empty list")
	}
	for cell.Next != nil {
		cell = cell.Next
	}
	return cell.Element
}

// At returns the element at index i.
func (l *LinkedListFixed) At(i int) Item {
	defer mLinkedListFixedAt.Enter(l)()
	l.checkIndex(i)
	return l.cellAt(i).Element
}

// InsertFirst prepends v; all validation precedes any mutation.
func (l *LinkedListFixed) InsertFirst(v Item) {
	defer mLinkedListFixedInsertFirst.Enter(l)()
	l.screen(v)
	l.Head = &LLCell{Element: v, Next: l.Head}
	l.Count++
	l.Version++
}

// InsertLast appends v; the tail walk happens before any mutation.
func (l *LinkedListFixed) InsertLast(v Item) {
	defer mLinkedListFixedInsertLast.Enter(l)()
	l.screen(v)
	cell := &LLCell{Element: v}
	if l.Head == nil {
		l.Head = cell
	} else {
		cur := l.Head
		for cur.Next != nil {
			cur = cur.Next
		}
		cur.Next = cell
	}
	l.Count++
	l.Version++
}

// InsertAt inserts v at index i; validation first, single-point commit.
func (l *LinkedListFixed) InsertAt(i int, v Item) {
	defer mLinkedListFixedInsertAt.Enter(l)()
	l.checkIndexInclusive(i)
	l.screen(v)
	if i == 0 {
		l.Head = &LLCell{Element: v, Next: l.Head}
	} else {
		prev := l.cellAt(i - 1)
		prev.Next = &LLCell{Element: v, Next: prev.Next}
	}
	l.Count++
	l.Version++
}

// RemoveFirst removes and returns the first element.
func (l *LinkedListFixed) RemoveFirst() Item {
	defer mLinkedListFixedRemoveFirst.Enter(l)()
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "LinkedListFixed.RemoveFirst", "empty list")
	}
	v := l.Head.Element
	l.Head = l.Head.Next
	l.Count--
	l.Version++
	return v
}

// RemoveLast removes and returns the last element.
func (l *LinkedListFixed) RemoveLast() Item {
	defer mLinkedListFixedRemoveLast.Enter(l)()
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "LinkedListFixed.RemoveLast", "empty list")
	}
	if l.Head.Next == nil {
		v := l.Head.Element
		l.Head = nil
		l.Count--
		l.Version++
		return v
	}
	cur := l.Head
	for cur.Next.Next != nil {
		cur = cur.Next
	}
	v := cur.Next.Element
	cur.Next = nil
	l.Count--
	l.Version++
	return v
}

// RemoveAt removes and returns the element at index i.
func (l *LinkedListFixed) RemoveAt(i int) Item {
	defer mLinkedListFixedRemoveAt.Enter(l)()
	l.checkIndex(i)
	var v Item
	if i == 0 {
		v = l.Head.Element
		l.Head = l.Head.Next
	} else {
		prev := l.cellAt(i - 1)
		v = prev.Next.Element
		prev.Next = prev.Next.Next
	}
	l.Count--
	l.Version++
	return v
}

// RemoveOne removes the first occurrence of v.
func (l *LinkedListFixed) RemoveOne(v Item) bool {
	defer mLinkedListFixedRemoveOne.Enter(l)()
	l.screen(v)
	if l.Head == nil {
		return false
	}
	if SameItem(l.Head.Element, v) {
		l.Head = l.Head.Next
		l.Count--
		l.Version++
		return true
	}
	for cur := l.Head; cur.Next != nil; cur = cur.Next {
		if SameItem(cur.Next.Element, v) {
			cur.Next = cur.Next.Next
			l.Count--
			l.Version++
			return true
		}
	}
	return false
}

// RemoveAll removes every occurrence of v. The incremental unlinking walk
// cannot be repaired by statement reordering; it stays failure non-atomic
// and is the masking phase's job.
func (l *LinkedListFixed) RemoveAll(v Item) int {
	defer mLinkedListFixedRemoveAll.Enter(l)()
	l.screen(v)
	removed := 0
	for l.Head != nil && SameItem(l.Head.Element, v) {
		l.Head = l.Head.Next
		l.Count--
		l.Version++
		removed++
		l.screen(v)
	}
	if l.Head == nil {
		return removed
	}
	for cur := l.Head; cur.Next != nil; {
		if SameItem(cur.Next.Element, v) {
			cur.Next = cur.Next.Next
			l.Count--
			l.Version++
			removed++
			l.screen(v)
		} else {
			cur = cur.Next
		}
	}
	return removed
}

// ReplaceAt replaces the element at index i and returns the old element.
func (l *LinkedListFixed) ReplaceAt(i int, v Item) Item {
	defer mLinkedListFixedReplaceAt.Enter(l)()
	l.checkIndex(i)
	l.screen(v)
	cell := l.cellAt(i)
	old := cell.Element
	cell.Element = v
	l.Version++
	return old
}

// ReplaceAll replaces every occurrence of oldV with newV. Like RemoveAll,
// the element-by-element walk remains failure non-atomic.
func (l *LinkedListFixed) ReplaceAll(oldV, newV Item) int {
	defer mLinkedListFixedReplaceAll.Enter(l)()
	l.screen(newV)
	replaced := 0
	for cur := l.Head; cur != nil; cur = cur.Next {
		if SameItem(cur.Element, oldV) {
			cur.Element = newV
			l.Version++
			replaced++
			l.screen(newV)
		}
	}
	return replaced
}

// Includes reports whether v occurs in the list.
func (l *LinkedListFixed) Includes(v Item) bool {
	defer mLinkedListFixedIncludes.Enter(l)()
	return l.IndexOf(v) >= 0
}

// IndexOf returns the index of the first occurrence of v, or -1.
func (l *LinkedListFixed) IndexOf(v Item) int {
	defer mLinkedListFixedIndexOf.Enter(l)()
	i := 0
	for cur := l.Head; cur != nil; cur = cur.Next {
		if SameItem(cur.Element, v) {
			return i
		}
		i++
	}
	return -1
}

// Clear removes all elements.
func (l *LinkedListFixed) Clear() {
	defer mLinkedListFixedClear.Enter(l)()
	l.Head = nil
	l.Count = 0
	l.Version++
}

// ToSlice copies the elements into a fresh slice.
func (l *LinkedListFixed) ToSlice() []Item {
	defer mLinkedListFixedToSlice.Enter(l)()
	out := make([]Item, 0, l.Count)
	for cur := l.Head; cur != nil; cur = cur.Next {
		out = append(out, cur.Element)
	}
	return out
}

// checkIndex throws IndexOutOfBounds unless 0 <= i < Count.
func (l *LinkedListFixed) checkIndex(i int) {
	defer mLinkedListFixedcheckIndex.Enter(l)()
	if i < 0 || i >= l.Count {
		fault.Throw(fault.IndexOutOfBounds, "LinkedListFixed.checkIndex",
			"index %d outside [0,%d)", i, l.Count)
	}
}

// checkIndexInclusive allows i == Count (insertion position).
func (l *LinkedListFixed) checkIndexInclusive(i int) {
	defer mLinkedListFixedcheckIndexInclusive.Enter(l)()
	if i < 0 || i > l.Count {
		fault.Throw(fault.IndexOutOfBounds, "LinkedListFixed.checkIndexInclusive",
			"index %d outside [0,%d]", i, l.Count)
	}
}

// screen validates an element against the list's screener.
func (l *LinkedListFixed) screen(v Item) {
	defer mLinkedListFixedscreen.Enter(l)()
	checkElement("LinkedListFixed.screen", l.Screen, v)
}

// cellAt returns the cell at index i; the index must already be checked.
//
//failatomic:ignore hot navigation helper, no state
func (l *LinkedListFixed) cellAt(i int) *LLCell {
	cur := l.Head
	for ; i > 0; i-- {
		cur = cur.Next
	}
	return cur
}

// RegisterLinkedListFixed adds the repaired list's methods to a registry.
func RegisterLinkedListFixed(r *core.Registry) {
	r.Ctor("LinkedListFixed", "LinkedListFixed.New").
		Method("LinkedListFixed", "Size").
		Method("LinkedListFixed", "IsEmpty").
		Method("LinkedListFixed", "First", fault.NoSuchElement).
		Method("LinkedListFixed", "Last", fault.NoSuchElement).
		Method("LinkedListFixed", "At", fault.IndexOutOfBounds).
		Method("LinkedListFixed", "InsertFirst", fault.IllegalElement).
		Method("LinkedListFixed", "InsertLast", fault.IllegalElement).
		Method("LinkedListFixed", "InsertAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("LinkedListFixed", "RemoveFirst", fault.NoSuchElement).
		Method("LinkedListFixed", "RemoveLast", fault.NoSuchElement).
		Method("LinkedListFixed", "RemoveAt", fault.IndexOutOfBounds).
		Method("LinkedListFixed", "RemoveOne", fault.IllegalElement).
		Method("LinkedListFixed", "RemoveAll", fault.IllegalElement).
		Method("LinkedListFixed", "ReplaceAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("LinkedListFixed", "ReplaceAll", fault.IllegalElement).
		Method("LinkedListFixed", "Includes").
		Method("LinkedListFixed", "IndexOf").
		Method("LinkedListFixed", "Clear").
		Method("LinkedListFixed", "ToSlice").
		Method("LinkedListFixed", "checkIndex", fault.IndexOutOfBounds).
		Method("LinkedListFixed", "checkIndexInclusive", fault.IndexOutOfBounds).
		Method("LinkedListFixed", "screen", fault.IllegalElement)
}
