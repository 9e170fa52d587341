package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mDynarrayNew            = core.Method("Dynarray.New")
	mDynarraySize           = core.Method("Dynarray.Size")
	mDynarrayIsEmpty        = core.Method("Dynarray.IsEmpty")
	mDynarrayCapacity       = core.Method("Dynarray.Capacity")
	mDynarrayAt             = core.Method("Dynarray.At")
	mDynarraySetAt          = core.Method("Dynarray.SetAt")
	mDynarrayAppend         = core.Method("Dynarray.Append")
	mDynarrayInsertAt       = core.Method("Dynarray.InsertAt")
	mDynarrayRemoveAt       = core.Method("Dynarray.RemoveAt")
	mDynarrayRemoveOne      = core.Method("Dynarray.RemoveOne")
	mDynarrayEnsureCapacity = core.Method("Dynarray.EnsureCapacity")
	mDynarrayTrim           = core.Method("Dynarray.Trim")
	mDynarrayIncludes       = core.Method("Dynarray.Includes")
	mDynarrayIndexOf        = core.Method("Dynarray.IndexOf")
	mDynarrayClear          = core.Method("Dynarray.Clear")
	mDynarrayToSlice        = core.Method("Dynarray.ToSlice")
	mDynarraycheckIndex     = core.Method("Dynarray.checkIndex")
	mDynarrayscreen         = core.Method("Dynarray.screen")
)

// Dynarray is a growable array in the original library's style: explicit
// capacity management, element shifting on insert/remove, and mutators
// that update bookkeeping before all validation has finished.
type Dynarray struct {
	Data    []Item
	Count   int
	Version int
	Screen  Screener
}

// DefaultDynarrayCapacity is the initial capacity used when none is given.
const DefaultDynarrayCapacity = 8

// NewDynarray returns an empty array with the given initial capacity.
func NewDynarray(capacity int, screen Screener) *Dynarray {
	defer mDynarrayNew.Enter(nil)()
	if capacity <= 0 {
		capacity = DefaultDynarrayCapacity
	}
	return &Dynarray{Data: make([]Item, capacity), Screen: screen}
}

// Size returns the number of elements.
func (d *Dynarray) Size() int {
	defer mDynarraySize.Enter(d)()
	return d.Count
}

// IsEmpty reports whether the array has no elements.
func (d *Dynarray) IsEmpty() bool {
	defer mDynarrayIsEmpty.Enter(d)()
	return d.Count == 0
}

// Capacity returns the current slot capacity.
func (d *Dynarray) Capacity() int {
	defer mDynarrayCapacity.Enter(d)()
	return len(d.Data)
}

// At returns the element at index i.
func (d *Dynarray) At(i int) Item {
	defer mDynarrayAt.Enter(d)()
	d.checkIndex(i)
	return d.Data[i]
}

// SetAt replaces the element at index i; the version bump precedes the
// index check (original idiom).
func (d *Dynarray) SetAt(i int, v Item) {
	defer mDynarraySetAt.Enter(d)()
	d.Version++
	d.checkIndex(i)
	d.screen(v)
	d.Data[i] = v
}

// Append adds v at the end.
func (d *Dynarray) Append(v Item) {
	defer mDynarrayAppend.Enter(d)()
	d.Version++
	d.EnsureCapacity(d.Count + 1)
	d.screen(v)
	d.Data[d.Count] = v
	d.Count++
}

// InsertAt inserts v at index i, shifting later elements right. The shift
// happens before the element is screened, so an exception leaves the
// array half-shifted — the classic pure failure non-atomic method.
func (d *Dynarray) InsertAt(i int, v Item) {
	defer mDynarrayInsertAt.Enter(d)()
	d.Version++
	if i < 0 || i > d.Count {
		fault.Throw(fault.IndexOutOfBounds, "Dynarray.InsertAt",
			"index %d outside [0,%d]", i, d.Count)
	}
	d.EnsureCapacity(d.Count + 1)
	for j := d.Count; j > i; j-- {
		d.Data[j] = d.Data[j-1]
	}
	d.Count++
	d.screen(v)
	d.Data[i] = v
}

// RemoveAt removes and returns the element at index i, shifting later
// elements left.
func (d *Dynarray) RemoveAt(i int) Item {
	defer mDynarrayRemoveAt.Enter(d)()
	d.Version++
	d.checkIndex(i)
	v := d.Data[i]
	for j := i; j < d.Count-1; j++ {
		d.Data[j] = d.Data[j+1]
	}
	d.Count--
	d.Data[d.Count] = nil
	return v
}

// RemoveOne removes the first occurrence of v.
func (d *Dynarray) RemoveOne(v Item) bool {
	defer mDynarrayRemoveOne.Enter(d)()
	d.Version++
	idx := d.IndexOf(v)
	if idx < 0 {
		return false
	}
	d.RemoveAt(idx)
	return true
}

// EnsureCapacity grows the backing slots to at least n.
func (d *Dynarray) EnsureCapacity(n int) {
	defer mDynarrayEnsureCapacity.Enter(d)()
	if n <= len(d.Data) {
		return
	}
	grown := len(d.Data)*3/2 + 1
	if grown < n {
		grown = n
	}
	fresh := make([]Item, grown)
	copy(fresh, d.Data[:d.Count])
	d.Data = fresh
}

// Trim shrinks the capacity to the current count.
func (d *Dynarray) Trim() {
	defer mDynarrayTrim.Enter(d)()
	if len(d.Data) == d.Count {
		return
	}
	d.Version++
	fresh := make([]Item, d.Count)
	copy(fresh, d.Data[:d.Count])
	d.Data = fresh
}

// Includes reports whether v occurs in the array.
func (d *Dynarray) Includes(v Item) bool {
	defer mDynarrayIncludes.Enter(d)()
	return d.IndexOf(v) >= 0
}

// IndexOf returns the index of the first occurrence of v, or -1.
func (d *Dynarray) IndexOf(v Item) int {
	defer mDynarrayIndexOf.Enter(d)()
	for i := 0; i < d.Count; i++ {
		if SameItem(d.Data[i], v) {
			return i
		}
	}
	return -1
}

// Clear removes all elements, keeping the capacity.
func (d *Dynarray) Clear() {
	defer mDynarrayClear.Enter(d)()
	d.Version++
	for i := 0; i < d.Count; i++ {
		d.Data[i] = nil
	}
	d.Count = 0
}

// ToSlice copies the elements into a fresh slice.
func (d *Dynarray) ToSlice() []Item {
	defer mDynarrayToSlice.Enter(d)()
	out := make([]Item, d.Count)
	copy(out, d.Data[:d.Count])
	return out
}

// checkIndex throws IndexOutOfBounds unless 0 <= i < Count.
func (d *Dynarray) checkIndex(i int) {
	defer mDynarraycheckIndex.Enter(d)()
	if i < 0 || i >= d.Count {
		fault.Throw(fault.IndexOutOfBounds, "Dynarray.checkIndex",
			"index %d outside [0,%d)", i, d.Count)
	}
}

// screen validates an element.
func (d *Dynarray) screen(v Item) {
	defer mDynarrayscreen.Enter(d)()
	checkElement("Dynarray.screen", d.Screen, v)
}

// RegisterDynarray adds the Dynarray methods to a registry.
func RegisterDynarray(r *core.Registry) {
	r.Ctor("Dynarray", "Dynarray.New").
		Method("Dynarray", "Size").
		Method("Dynarray", "IsEmpty").
		Method("Dynarray", "Capacity").
		Method("Dynarray", "At", fault.IndexOutOfBounds).
		Method("Dynarray", "SetAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("Dynarray", "Append", fault.IllegalElement).
		Method("Dynarray", "InsertAt", fault.IndexOutOfBounds, fault.IllegalElement).
		Method("Dynarray", "RemoveAt", fault.IndexOutOfBounds).
		Method("Dynarray", "RemoveOne").
		Method("Dynarray", "EnsureCapacity").
		Method("Dynarray", "Trim").
		Method("Dynarray", "Includes").
		Method("Dynarray", "IndexOf").
		Method("Dynarray", "Clear").
		Method("Dynarray", "ToSlice").
		Method("Dynarray", "checkIndex", fault.IndexOutOfBounds).
		Method("Dynarray", "screen", fault.IllegalElement)
}
