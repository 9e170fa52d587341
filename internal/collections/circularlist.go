package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mCLCellNew               = core.Method("CLCell.New")
	mCLCellAddNext           = core.Method("CLCell.AddNext")
	mCLCellAddPrev           = core.Method("CLCell.AddPrev")
	mCLCellUnlink            = core.Method("CLCell.Unlink")
	mCircularListNew         = core.Method("CircularList.New")
	mCircularListSize        = core.Method("CircularList.Size")
	mCircularListIsEmpty     = core.Method("CircularList.IsEmpty")
	mCircularListFirst       = core.Method("CircularList.First")
	mCircularListLast        = core.Method("CircularList.Last")
	mCircularListAt          = core.Method("CircularList.At")
	mCircularListInsertFirst = core.Method("CircularList.InsertFirst")
	mCircularListInsertLast  = core.Method("CircularList.InsertLast")
	mCircularListInsertAt    = core.Method("CircularList.InsertAt")
	mCircularListRemoveFirst = core.Method("CircularList.RemoveFirst")
	mCircularListRemoveLast  = core.Method("CircularList.RemoveLast")
	mCircularListRemoveAt    = core.Method("CircularList.RemoveAt")
	mCircularListReplaceAt   = core.Method("CircularList.ReplaceAt")
	mCircularListRotate      = core.Method("CircularList.Rotate")
	mCircularListIncludes    = core.Method("CircularList.Includes")
	mCircularListIndexOf     = core.Method("CircularList.IndexOf")
	mCircularListClear       = core.Method("CircularList.Clear")
	mCircularListToSlice     = core.Method("CircularList.ToSlice")
	mCircularListcheckIndex  = core.Method("CircularList.checkIndex")
	mCircularListscreen      = core.Method("CircularList.screen")
	mCircularListunlinkCell  = core.Method("CircularList.unlinkCell")
)

// CLCell is one cell of a doubly linked circular list. Cells carry their
// own splicing operations, as in the original library, so the cell class
// contributes instrumented methods of its own.
type CLCell struct {
	Element Item
	Prev    *CLCell
	Next    *CLCell
}

// NewCLCell returns a self-linked cell.
func NewCLCell(v Item) *CLCell {
	defer mCLCellNew.Enter(nil)()
	c := &CLCell{Element: v}
	c.Prev = c
	c.Next = c
	return c
}

// AddNext splices a new cell holding v directly after c.
func (c *CLCell) AddNext(v Item) *CLCell {
	defer mCLCellAddNext.Enter(c)()
	fresh := &CLCell{Element: v, Prev: c, Next: c.Next}
	c.Next.Prev = fresh
	c.Next = fresh
	return fresh
}

// AddPrev splices a new cell holding v directly before c.
func (c *CLCell) AddPrev(v Item) *CLCell {
	defer mCLCellAddPrev.Enter(c)()
	fresh := &CLCell{Element: v, Prev: c.Prev, Next: c}
	c.Prev.Next = fresh
	c.Prev = fresh
	return fresh
}

// Unlink removes c from its ring.
func (c *CLCell) Unlink() {
	defer mCLCellUnlink.Enter(c)()
	c.Prev.Next = c.Next
	c.Next.Prev = c.Prev
	c.Prev = c
	c.Next = c
}

// CircularList is a screened, versioned circular doubly linked list.
type CircularList struct {
	Head    *CLCell
	Count   int
	Version int
	Screen  Screener
}

// NewCircularList returns an empty circular list.
func NewCircularList(screen Screener) *CircularList {
	defer mCircularListNew.Enter(nil)()
	return &CircularList{Screen: screen}
}

// Size returns the number of elements.
func (l *CircularList) Size() int {
	defer mCircularListSize.Enter(l)()
	return l.Count
}

// IsEmpty reports whether the list has no elements.
func (l *CircularList) IsEmpty() bool {
	defer mCircularListIsEmpty.Enter(l)()
	return l.Count == 0
}

// First returns the head element.
func (l *CircularList) First() Item {
	defer mCircularListFirst.Enter(l)()
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "CircularList.First", "empty list")
	}
	return l.Head.Element
}

// Last returns the element before the head.
func (l *CircularList) Last() Item {
	defer mCircularListLast.Enter(l)()
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "CircularList.Last", "empty list")
	}
	return l.Head.Prev.Element
}

// At returns the element at index i (walking from the head).
func (l *CircularList) At(i int) Item {
	defer mCircularListAt.Enter(l)()
	l.checkIndex(i)
	return l.cellAt(i).Element
}

// InsertFirst prepends v; the version bump precedes screening (original
// idiom, failure non-atomic).
func (l *CircularList) InsertFirst(v Item) {
	defer mCircularListInsertFirst.Enter(l)()
	l.Version++
	l.screen(v)
	if l.Head == nil {
		l.Head = NewCLCell(v)
	} else {
		l.Head = l.Head.AddPrev(v)
	}
	l.Count++
}

// InsertLast appends v before the head.
func (l *CircularList) InsertLast(v Item) {
	defer mCircularListInsertLast.Enter(l)()
	l.Version++
	l.Count++
	l.screen(v)
	if l.Head == nil {
		l.Head = NewCLCell(v)
		return
	}
	l.Head.AddPrev(v)
}

// InsertAt inserts v at index i.
func (l *CircularList) InsertAt(i int, v Item) {
	defer mCircularListInsertAt.Enter(l)()
	l.Version++
	if i < 0 || i > l.Count {
		fault.Throw(fault.IndexOutOfBounds, "CircularList.InsertAt",
			"index %d outside [0,%d]", i, l.Count)
	}
	l.screen(v)
	switch {
	case l.Head == nil:
		l.Head = NewCLCell(v)
	case i == 0:
		l.Head = l.Head.AddPrev(v)
	case i == l.Count:
		l.Head.AddPrev(v)
	default:
		l.cellAt(i).AddPrev(v)
	}
	l.Count++
}

// RemoveFirst removes and returns the head element; the version is bumped
// before the emptiness check.
func (l *CircularList) RemoveFirst() Item {
	defer mCircularListRemoveFirst.Enter(l)()
	l.Version++
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "CircularList.RemoveFirst", "empty list")
	}
	v := l.Head.Element
	l.unlinkCell(l.Head)
	return v
}

// RemoveLast removes and returns the tail element.
func (l *CircularList) RemoveLast() Item {
	defer mCircularListRemoveLast.Enter(l)()
	l.Version++
	if l.Head == nil {
		fault.Throw(fault.NoSuchElement, "CircularList.RemoveLast", "empty list")
	}
	v := l.Head.Prev.Element
	l.unlinkCell(l.Head.Prev)
	return v
}

// RemoveAt removes and returns the element at index i.
func (l *CircularList) RemoveAt(i int) Item {
	defer mCircularListRemoveAt.Enter(l)()
	l.Version++
	l.checkIndex(i)
	cell := l.cellAt(i)
	v := cell.Element
	l.unlinkCell(cell)
	return v
}

// ReplaceAt replaces the element at index i.
func (l *CircularList) ReplaceAt(i int, v Item) Item {
	defer mCircularListReplaceAt.Enter(l)()
	l.Version++
	l.checkIndex(i)
	l.screen(v)
	cell := l.cellAt(i)
	old := cell.Element
	cell.Element = v
	return old
}

// Rotate advances the head by n positions (n may be negative).
func (l *CircularList) Rotate(n int) {
	defer mCircularListRotate.Enter(l)()
	if l.Head == nil {
		return
	}
	l.Version++
	steps := n % l.Count
	if steps < 0 {
		steps += l.Count
	}
	for ; steps > 0; steps-- {
		l.Head = l.Head.Next
	}
}

// Includes reports whether v occurs in the list.
func (l *CircularList) Includes(v Item) bool {
	defer mCircularListIncludes.Enter(l)()
	return l.IndexOf(v) >= 0
}

// IndexOf returns the index of the first occurrence of v, or -1.
func (l *CircularList) IndexOf(v Item) int {
	defer mCircularListIndexOf.Enter(l)()
	if l.Head == nil {
		return -1
	}
	cur := l.Head
	for i := 0; i < l.Count; i++ {
		if SameItem(cur.Element, v) {
			return i
		}
		cur = cur.Next
	}
	return -1
}

// Clear removes all elements.
func (l *CircularList) Clear() {
	defer mCircularListClear.Enter(l)()
	l.Version++
	l.Head = nil
	l.Count = 0
}

// ToSlice copies the elements into a fresh slice in ring order.
func (l *CircularList) ToSlice() []Item {
	defer mCircularListToSlice.Enter(l)()
	out := make([]Item, 0, l.Count)
	if l.Head == nil {
		return out
	}
	cur := l.Head
	for i := 0; i < l.Count; i++ {
		out = append(out, cur.Element)
		cur = cur.Next
	}
	return out
}

// checkIndex throws IndexOutOfBounds unless 0 <= i < Count.
func (l *CircularList) checkIndex(i int) {
	defer mCircularListcheckIndex.Enter(l)()
	if i < 0 || i >= l.Count {
		fault.Throw(fault.IndexOutOfBounds, "CircularList.checkIndex",
			"index %d outside [0,%d)", i, l.Count)
	}
}

// screen validates an element.
func (l *CircularList) screen(v Item) {
	defer mCircularListscreen.Enter(l)()
	checkElement("CircularList.screen", l.Screen, v)
}

// unlinkCell removes cell from the ring and fixes Head/Count.
func (l *CircularList) unlinkCell(cell *CLCell) {
	defer mCircularListunlinkCell.Enter(l)()
	if l.Count == 1 {
		l.Head = nil
		l.Count = 0
		return
	}
	if cell == l.Head {
		l.Head = cell.Next
	}
	cell.Unlink()
	l.Count--
}

// cellAt returns the cell at index i; the index must already be checked.
//
//failatomic:ignore hot navigation helper, no state
func (l *CircularList) cellAt(i int) *CLCell {
	cur := l.Head
	for ; i > 0; i-- {
		cur = cur.Next
	}
	return cur
}

// RegisterCircularList adds the circular list's classes to a registry.
func RegisterCircularList(r *core.Registry) {
	r.Ctor("CLCell", "CLCell.New").
		Method("CLCell", "AddNext").
		Method("CLCell", "AddPrev").
		Method("CLCell", "Unlink").
		Ctor("CircularList", "CircularList.New").
		Method("CircularList", "Size").
		Method("CircularList", "IsEmpty").
		Method("CircularList", "First", fault.NoSuchElement).
		Method("CircularList", "Last", fault.NoSuchElement).
		Method("CircularList", "At", fault.IndexOutOfBounds).
		Method("CircularList", "InsertFirst", fault.IllegalElement).
		Method("CircularList", "InsertLast", fault.IllegalElement).
		Method("CircularList", "InsertAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("CircularList", "RemoveFirst", fault.NoSuchElement).
		Method("CircularList", "RemoveLast", fault.NoSuchElement).
		Method("CircularList", "RemoveAt", fault.IndexOutOfBounds).
		Method("CircularList", "ReplaceAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("CircularList", "Rotate").
		Method("CircularList", "Includes").
		Method("CircularList", "IndexOf").
		Method("CircularList", "Clear").
		Method("CircularList", "ToSlice").
		Method("CircularList", "checkIndex", fault.IndexOutOfBounds).
		Method("CircularList", "screen", fault.IllegalElement).
		Method("CircularList", "unlinkCell")
}
