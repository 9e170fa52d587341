package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mLinkedListNew                 = core.Method("LinkedList.New")
	mLinkedListSize                = core.Method("LinkedList.Size")
	mLinkedListIsEmpty             = core.Method("LinkedList.IsEmpty")
	mLinkedListFirst               = core.Method("LinkedList.First")
	mLinkedListLast                = core.Method("LinkedList.Last")
	mLinkedListAt                  = core.Method("LinkedList.At")
	mLinkedListInsertFirst         = core.Method("LinkedList.InsertFirst")
	mLinkedListInsertLast          = core.Method("LinkedList.InsertLast")
	mLinkedListInsertAt            = core.Method("LinkedList.InsertAt")
	mLinkedListRemoveFirst         = core.Method("LinkedList.RemoveFirst")
	mLinkedListRemoveLast          = core.Method("LinkedList.RemoveLast")
	mLinkedListRemoveAt            = core.Method("LinkedList.RemoveAt")
	mLinkedListRemoveOne           = core.Method("LinkedList.RemoveOne")
	mLinkedListRemoveAll           = core.Method("LinkedList.RemoveAll")
	mLinkedListReplaceAt           = core.Method("LinkedList.ReplaceAt")
	mLinkedListReplaceAll          = core.Method("LinkedList.ReplaceAll")
	mLinkedListIncludes            = core.Method("LinkedList.Includes")
	mLinkedListIndexOf             = core.Method("LinkedList.IndexOf")
	mLinkedListClear               = core.Method("LinkedList.Clear")
	mLinkedListToSlice             = core.Method("LinkedList.ToSlice")
	mLinkedListcheckIndex          = core.Method("LinkedList.checkIndex")
	mLinkedListcheckIndexInclusive = core.Method("LinkedList.checkIndexInclusive")
	mLinkedListscreen              = core.Method("LinkedList.screen")
)

// LLCell is one cell of a singly linked list.
type LLCell struct {
	Element Item
	Next    *LLCell
}

// LinkedList is a screened, versioned singly linked list in the original
// library's idiom: mutators bump Version *first* and validate afterwards,
// which is exactly the failure non-atomic pattern the paper's §6.1
// LinkedList experiment found 18 instances of.
type LinkedList struct {
	Head    *LLCell
	Count   int
	Version int
	Screen  Screener
}

// NewLinkedList returns an empty list with an optional element screener.
func NewLinkedList(screen Screener) *LinkedList {
	defer mLinkedListNew.Enter(nil)()
	return &LinkedList{Screen: screen}
}

// Size returns the number of elements.
func (l *LinkedList) Size() int {
	defer mLinkedListSize.Enter(l)()
	return l.Count
}

// IsEmpty reports whether the list has no elements.
func (l *LinkedList) IsEmpty() bool {
	defer mLinkedListIsEmpty.Enter(l)()
	return l.Count == 0
}

// First returns the first element; it throws NoSuchElement when empty.
func (l *LinkedList) First() Item {
	defer mLinkedListFirst.Enter(l)()
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "LinkedList.First", "empty list")
	}
	return l.Head.Element
}

// Last returns the last element; it throws NoSuchElement when empty.
func (l *LinkedList) Last() Item {
	defer mLinkedListLast.Enter(l)()
	cell := l.Head
	if cell == nil {
		fault.Throw(fault.NoSuchElement, "LinkedList.Last", "empty list")
	}
	for cell.Next != nil {
		cell = cell.Next
	}
	return cell.Element
}

// At returns the element at index i.
func (l *LinkedList) At(i int) Item {
	defer mLinkedListAt.Enter(l)()
	l.checkIndex(i)
	return l.cellAt(i).Element
}

// InsertFirst prepends v. Original idiom: version is bumped before the
// element is screened.
func (l *LinkedList) InsertFirst(v Item) {
	defer mLinkedListInsertFirst.Enter(l)()
	l.Version++
	l.screen(v)
	l.Head = &LLCell{Element: v, Next: l.Head}
	l.Count++
}

// InsertLast appends v; version and count are updated before the screening
// walk completes.
func (l *LinkedList) InsertLast(v Item) {
	defer mLinkedListInsertLast.Enter(l)()
	l.Version++
	l.Count++
	l.screen(v)
	cell := &LLCell{Element: v}
	if l.Head == nil {
		l.Head = cell
		return
	}
	cur := l.Head
	for cur.Next != nil {
		cur = cur.Next
	}
	cur.Next = cell
}

// InsertAt inserts v so that it becomes the element at index i.
func (l *LinkedList) InsertAt(i int, v Item) {
	defer mLinkedListInsertAt.Enter(l)()
	l.Count++ // original bug pattern: count first, validate later
	l.Version++
	if i == 0 {
		l.screen(v)
		l.Head = &LLCell{Element: v, Next: l.Head}
		return
	}
	l.checkIndexInclusive(i)
	l.screen(v)
	prev := l.cellAt(i - 1)
	prev.Next = &LLCell{Element: v, Next: prev.Next}
}

// RemoveFirst removes and returns the first element. The emptiness check
// happens after the version bump — a non-atomic organic failure.
func (l *LinkedList) RemoveFirst() Item {
	defer mLinkedListRemoveFirst.Enter(l)()
	l.Version++
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "LinkedList.RemoveFirst", "empty list")
	}
	v := l.Head.Element
	l.Head = l.Head.Next
	l.Count--
	return v
}

// RemoveLast removes and returns the last element.
func (l *LinkedList) RemoveLast() Item {
	defer mLinkedListRemoveLast.Enter(l)()
	l.Version++
	l.Count--
	if l.Head == nil {
		l.Count++
		fault.Throw(fault.NoSuchElement, "LinkedList.RemoveLast", "empty list")
	}
	if l.Head.Next == nil {
		v := l.Head.Element
		l.Head = nil
		return v
	}
	cur := l.Head
	for cur.Next.Next != nil {
		cur = cur.Next
	}
	v := cur.Next.Element
	cur.Next = nil
	return v
}

// RemoveAt removes and returns the element at index i.
func (l *LinkedList) RemoveAt(i int) Item {
	defer mLinkedListRemoveAt.Enter(l)()
	l.Version++
	l.checkIndex(i)
	if i == 0 {
		v := l.Head.Element
		l.Head = l.Head.Next
		l.Count--
		return v
	}
	prev := l.cellAt(i - 1)
	v := prev.Next.Element
	prev.Next = prev.Next.Next
	l.Count--
	return v
}

// RemoveOne removes the first occurrence of v and reports whether one was
// removed.
func (l *LinkedList) RemoveOne(v Item) bool {
	defer mLinkedListRemoveOne.Enter(l)()
	l.Version++
	l.screen(v)
	if l.Head == nil {
		return false
	}
	if SameItem(l.Head.Element, v) {
		l.Head = l.Head.Next
		l.Count--
		return true
	}
	for cur := l.Head; cur.Next != nil; cur = cur.Next {
		if SameItem(cur.Next.Element, v) {
			cur.Next = cur.Next.Next
			l.Count--
			return true
		}
	}
	return false
}

// RemoveAll removes every occurrence of v, unlinking as it walks — an
// exception mid-walk leaves earlier removals committed (inherently pure
// failure non-atomic; not trivially fixable).
func (l *LinkedList) RemoveAll(v Item) int {
	defer mLinkedListRemoveAll.Enter(l)()
	removed := 0
	for l.Head != nil && SameItem(l.Head.Element, v) {
		l.Version++
		l.Head = l.Head.Next
		l.Count--
		removed++
		l.screen(v)
	}
	if l.Head == nil {
		return removed
	}
	for cur := l.Head; cur.Next != nil; {
		if SameItem(cur.Next.Element, v) {
			l.Version++
			cur.Next = cur.Next.Next
			l.Count--
			removed++
			l.screen(v)
		} else {
			cur = cur.Next
		}
	}
	return removed
}

// ReplaceAt replaces the element at index i and returns the old element.
func (l *LinkedList) ReplaceAt(i int, v Item) Item {
	defer mLinkedListReplaceAt.Enter(l)()
	l.Version++
	l.checkIndex(i)
	l.screen(v)
	cell := l.cellAt(i)
	old := cell.Element
	cell.Element = v
	return old
}

// ReplaceAll replaces every occurrence of old with new, screening each
// write — partial progress on exception makes this pure non-atomic.
func (l *LinkedList) ReplaceAll(oldV, newV Item) int {
	defer mLinkedListReplaceAll.Enter(l)()
	replaced := 0
	for cur := l.Head; cur != nil; cur = cur.Next {
		if SameItem(cur.Element, oldV) {
			l.Version++
			cur.Element = newV
			replaced++
			l.screen(newV)
		}
	}
	return replaced
}

// Includes reports whether v occurs in the list.
func (l *LinkedList) Includes(v Item) bool {
	defer mLinkedListIncludes.Enter(l)()
	return l.IndexOf(v) >= 0
}

// IndexOf returns the index of the first occurrence of v, or -1.
func (l *LinkedList) IndexOf(v Item) int {
	defer mLinkedListIndexOf.Enter(l)()
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
func (l *LinkedList) Clear() {
	defer mLinkedListClear.Enter(l)()
	l.Version++
	l.Head = nil
	l.Count = 0
}

// ToSlice copies the elements into a fresh slice.
func (l *LinkedList) ToSlice() []Item {
	defer mLinkedListToSlice.Enter(l)()
	out := make([]Item, 0, l.Count)
	for cur := l.Head; cur != nil; cur = cur.Next {
		out = append(out, cur.Element)
	}
	return out
}

// checkIndex throws IndexOutOfBounds unless 0 <= i < Count.
func (l *LinkedList) checkIndex(i int) {
	defer mLinkedListcheckIndex.Enter(l)()
	if i < 0 || i >= l.Count {
		fault.Throw(fault.IndexOutOfBounds, "LinkedList.checkIndex",
			"index %d outside [0,%d)", i, l.Count)
	}
}

// checkIndexInclusive allows i == Count (insertion position).
func (l *LinkedList) checkIndexInclusive(i int) {
	defer mLinkedListcheckIndexInclusive.Enter(l)()
	// Note: callers that pre-incremented Count pass indices validated
	// against the *new* count, faithfully reproducing the original
	// library's subtle semantics.
	if i < 0 || i >= l.Count {
		fault.Throw(fault.IndexOutOfBounds, "LinkedList.checkIndexInclusive",
			"index %d outside [0,%d]", i, l.Count)
	}
}

// screen validates an element against the list's screener.
func (l *LinkedList) screen(v Item) {
	defer mLinkedListscreen.Enter(l)()
	checkElement("LinkedList.screen", l.Screen, v)
}

// cellAt returns the cell at index i; the index must already be checked.
//
//failatomic:ignore hot navigation helper, no state
func (l *LinkedList) cellAt(i int) *LLCell {
	cur := l.Head
	for ; i > 0; i-- {
		cur = cur.Next
	}
	return cur
}

// RegisterLinkedList adds the LinkedList methods and their declared
// exception kinds to a registry (the Analyzer's Step 1 output).
func RegisterLinkedList(r *core.Registry) {
	r.Ctor("LinkedList", "LinkedList.New").
		Method("LinkedList", "Size").
		Method("LinkedList", "IsEmpty").
		Method("LinkedList", "First", fault.NoSuchElement).
		Method("LinkedList", "Last", fault.NoSuchElement).
		Method("LinkedList", "At", fault.IndexOutOfBounds).
		Method("LinkedList", "InsertFirst", fault.IllegalElement).
		Method("LinkedList", "InsertLast", fault.IllegalElement).
		Method("LinkedList", "InsertAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("LinkedList", "RemoveFirst", fault.NoSuchElement).
		Method("LinkedList", "RemoveLast", fault.NoSuchElement).
		Method("LinkedList", "RemoveAt", fault.IndexOutOfBounds).
		Method("LinkedList", "RemoveOne", fault.IllegalElement).
		Method("LinkedList", "RemoveAll", fault.IllegalElement).
		Method("LinkedList", "ReplaceAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("LinkedList", "ReplaceAll", fault.IllegalElement).
		Method("LinkedList", "Includes").
		Method("LinkedList", "IndexOf").
		Method("LinkedList", "Clear").
		Method("LinkedList", "ToSlice").
		Method("LinkedList", "checkIndex", fault.IndexOutOfBounds).
		Method("LinkedList", "checkIndexInclusive", fault.IndexOutOfBounds).
		Method("LinkedList", "screen", fault.IllegalElement)
}
