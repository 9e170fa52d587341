package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mLLIteratorNew        = core.Method("LLIterator.New")
	mLLIteratorHasNext    = core.Method("LLIterator.HasNext")
	mLLIteratorNext       = core.Method("LLIterator.Next")
	mLLIteratorReset      = core.Method("LLIterator.Reset")
	mCLIteratorNew        = core.Method("CLIterator.New")
	mCLIteratorHasNext    = core.Method("CLIterator.HasNext")
	mCLIteratorNext       = core.Method("CLIterator.Next")
	mDynIteratorNew       = core.Method("DynIterator.New")
	mDynIteratorHasNext   = core.Method("DynIterator.HasNext")
	mDynIteratorNext      = core.Method("DynIterator.Next")
	mHMIteratorNew        = core.Method("HMIterator.New")
	mHMIteratorHasNext    = core.Method("HMIterator.HasNext")
	mHMIteratorNext       = core.Method("HMIterator.Next")
	mHMIteratorscanFrom   = core.Method("HMIterator.scanFrom")
	mHSIteratorNew        = core.Method("HSIterator.New")
	mHSIteratorHasNext    = core.Method("HSIterator.HasNext")
	mHSIteratorNext       = core.Method("HSIterator.Next")
	mHSIteratorscanFrom   = core.Method("HSIterator.scanFrom")
	mLLMapIteratorNew     = core.Method("LLMapIterator.New")
	mLLMapIteratorHasNext = core.Method("LLMapIterator.HasNext")
	mLLMapIteratorNext    = core.Method("LLMapIterator.Next")
	mRBIteratorNew        = core.Method("RBIterator.New")
	mRBIteratorHasNext    = core.Method("RBIterator.HasNext")
	mRBIteratorNext       = core.Method("RBIterator.Next")
	mRBIteratorleftSpine  = core.Method("RBIterator.leftSpine")
)

// The enumeration classes mirror the original library's
// CollectionEnumeration implementations: one small cursor class per
// container. They are written in the check-then-advance style, so they
// are failure atomic — in the paper's evaluation these are the atomic
// ballast classes that dilute the non-atomic fraction.

// LLIterator enumerates a LinkedList.
type LLIterator struct {
	List  *LinkedList
	Cell  *LLCell
	Index int
}

// NewLLIterator returns an iterator positioned before the first element.
func NewLLIterator(l *LinkedList) *LLIterator {
	defer mLLIteratorNew.Enter(nil)()
	return &LLIterator{List: l, Cell: l.Head}
}

// HasNext reports whether Next will succeed.
func (it *LLIterator) HasNext() bool {
	defer mLLIteratorHasNext.Enter(it)()
	return it.Cell != nil
}

// Next returns the next element; it throws NoSuchElement when exhausted.
func (it *LLIterator) Next() Item {
	defer mLLIteratorNext.Enter(it)()
	if it.Cell == nil {
		fault.Throw(fault.NoSuchElement, "LLIterator.Next", "exhausted")
	}
	v := it.Cell.Element
	it.Cell = it.Cell.Next
	it.Index++
	return v
}

// Reset rewinds to the first element.
func (it *LLIterator) Reset() {
	defer mLLIteratorReset.Enter(it)()
	it.Cell = it.List.Head
	it.Index = 0
}

// RegisterLLIterator adds the LinkedList iterator class to a registry.
func RegisterLLIterator(r *core.Registry) {
	r.Ctor("LLIterator", "LLIterator.New").
		Method("LLIterator", "HasNext").
		Method("LLIterator", "Next", fault.NoSuchElement).
		Method("LLIterator", "Reset")
}

// CLIterator enumerates a CircularList ring exactly once.
type CLIterator struct {
	List *CircularList
	Cell *CLCell
	Seen int
}

// NewCLIterator returns an iterator positioned before the head.
func NewCLIterator(l *CircularList) *CLIterator {
	defer mCLIteratorNew.Enter(nil)()
	return &CLIterator{List: l, Cell: l.Head}
}

// HasNext reports whether Next will succeed.
func (it *CLIterator) HasNext() bool {
	defer mCLIteratorHasNext.Enter(it)()
	return it.Seen < it.List.Count
}

// Next returns the next element; it throws NoSuchElement after one lap.
func (it *CLIterator) Next() Item {
	defer mCLIteratorNext.Enter(it)()
	if it.Seen >= it.List.Count || it.Cell == nil {
		fault.Throw(fault.NoSuchElement, "CLIterator.Next", "exhausted")
	}
	v := it.Cell.Element
	it.Cell = it.Cell.Next
	it.Seen++
	return v
}

// RegisterCLIterator adds the CircularList iterator class to a registry.
func RegisterCLIterator(r *core.Registry) {
	r.Ctor("CLIterator", "CLIterator.New").
		Method("CLIterator", "HasNext").
		Method("CLIterator", "Next", fault.NoSuchElement)
}

// DynIterator enumerates a Dynarray.
type DynIterator struct {
	Array *Dynarray
	Index int
}

// NewDynIterator returns an iterator positioned before index 0.
func NewDynIterator(d *Dynarray) *DynIterator {
	defer mDynIteratorNew.Enter(nil)()
	return &DynIterator{Array: d}
}

// HasNext reports whether Next will succeed.
func (it *DynIterator) HasNext() bool {
	defer mDynIteratorHasNext.Enter(it)()
	return it.Index < it.Array.Count
}

// Next returns the next element; it throws NoSuchElement when exhausted.
func (it *DynIterator) Next() Item {
	defer mDynIteratorNext.Enter(it)()
	if it.Index >= it.Array.Count {
		fault.Throw(fault.NoSuchElement, "DynIterator.Next", "exhausted")
	}
	v := it.Array.Data[it.Index]
	it.Index++
	return v
}

// RegisterDynIterator adds the Dynarray iterator class to a registry.
func RegisterDynIterator(r *core.Registry) {
	r.Ctor("DynIterator", "DynIterator.New").
		Method("DynIterator", "HasNext").
		Method("DynIterator", "Next", fault.NoSuchElement)
}

// HMIterator enumerates a HashedMap's keys in bucket order.
type HMIterator struct {
	Map    *HashedMap
	Bucket int
	Entry  *HMEntry
}

// NewHMIterator returns an iterator positioned before the first entry.
func NewHMIterator(m *HashedMap) *HMIterator {
	defer mHMIteratorNew.Enter(nil)()
	it := &HMIterator{Map: m}
	it.Entry, it.Bucket = it.scanFrom(0)
	return it
}

// HasNext reports whether Next will succeed.
func (it *HMIterator) HasNext() bool {
	defer mHMIteratorHasNext.Enter(it)()
	return it.Entry != nil
}

// Next returns the next key; it throws NoSuchElement when exhausted. The
// successor is computed before any state commits.
func (it *HMIterator) Next() Item {
	defer mHMIteratorNext.Enter(it)()
	if it.Entry == nil {
		fault.Throw(fault.NoSuchElement, "HMIterator.Next", "exhausted")
	}
	k := it.Entry.Key
	nextEntry, nextBucket := it.Entry.Next, it.Bucket
	if nextEntry == nil {
		nextEntry, nextBucket = it.scanFrom(it.Bucket + 1)
	}
	it.Entry, it.Bucket = nextEntry, nextBucket
	return k
}

// scanFrom returns the first entry at or after bucket index from
// (read-only).
func (it *HMIterator) scanFrom(from int) (*HMEntry, int) {
	defer mHMIteratorscanFrom.Enter(it)()
	for b := from; b < len(it.Map.Buckets); b++ {
		if it.Map.Buckets[b] != nil {
			return it.Map.Buckets[b], b
		}
	}
	return nil, len(it.Map.Buckets)
}

// RegisterHMIterator adds the HashedMap iterator class to a registry.
func RegisterHMIterator(r *core.Registry) {
	r.Ctor("HMIterator", "HMIterator.New").
		Method("HMIterator", "HasNext").
		Method("HMIterator", "Next", fault.NoSuchElement).
		Method("HMIterator", "scanFrom")
}

// HSIterator enumerates a HashedSet in bucket order.
type HSIterator struct {
	Set    *HashedSet
	Bucket int
	Entry  *HSEntry
}

// NewHSIterator returns an iterator positioned before the first element.
func NewHSIterator(s *HashedSet) *HSIterator {
	defer mHSIteratorNew.Enter(nil)()
	it := &HSIterator{Set: s}
	it.Entry, it.Bucket = it.scanFrom(0)
	return it
}

// HasNext reports whether Next will succeed.
func (it *HSIterator) HasNext() bool {
	defer mHSIteratorHasNext.Enter(it)()
	return it.Entry != nil
}

// Next returns the next element; it throws NoSuchElement when exhausted.
// The successor is computed before any state commits.
func (it *HSIterator) Next() Item {
	defer mHSIteratorNext.Enter(it)()
	if it.Entry == nil {
		fault.Throw(fault.NoSuchElement, "HSIterator.Next", "exhausted")
	}
	v := it.Entry.Element
	nextEntry, nextBucket := it.Entry.Next, it.Bucket
	if nextEntry == nil {
		nextEntry, nextBucket = it.scanFrom(it.Bucket + 1)
	}
	it.Entry, it.Bucket = nextEntry, nextBucket
	return v
}

// scanFrom returns the first entry at or after bucket index from
// (read-only).
func (it *HSIterator) scanFrom(from int) (*HSEntry, int) {
	defer mHSIteratorscanFrom.Enter(it)()
	for b := from; b < len(it.Set.Buckets); b++ {
		if it.Set.Buckets[b] != nil {
			return it.Set.Buckets[b], b
		}
	}
	return nil, len(it.Set.Buckets)
}

// RegisterHSIterator adds the HashedSet iterator class to a registry.
func RegisterHSIterator(r *core.Registry) {
	r.Ctor("HSIterator", "HSIterator.New").
		Method("HSIterator", "HasNext").
		Method("HSIterator", "Next", fault.NoSuchElement).
		Method("HSIterator", "scanFrom")
}

// LLMapIterator enumerates an LLMap's pairs, newest first.
type LLMapIterator struct {
	Map  *LLMap
	Pair *LLPair
}

// NewLLMapIterator returns an iterator positioned before the first pair.
func NewLLMapIterator(m *LLMap) *LLMapIterator {
	defer mLLMapIteratorNew.Enter(nil)()
	return &LLMapIterator{Map: m, Pair: m.Head}
}

// HasNext reports whether Next will succeed.
func (it *LLMapIterator) HasNext() bool {
	defer mLLMapIteratorHasNext.Enter(it)()
	return it.Pair != nil
}

// Next returns the next key; it throws NoSuchElement when exhausted.
func (it *LLMapIterator) Next() Item {
	defer mLLMapIteratorNext.Enter(it)()
	if it.Pair == nil {
		fault.Throw(fault.NoSuchElement, "LLMapIterator.Next", "exhausted")
	}
	k := it.Pair.Key
	it.Pair = it.Pair.Next
	return k
}

// RegisterLLMapIterator adds the LLMap iterator class to a registry.
func RegisterLLMapIterator(r *core.Registry) {
	r.Ctor("LLMapIterator", "LLMapIterator.New").
		Method("LLMapIterator", "HasNext").
		Method("LLMapIterator", "Next", fault.NoSuchElement)
}

// RBIterator enumerates an RBTree in sorted order using an explicit
// ancestor stack.
type RBIterator struct {
	Tree  *RBTree
	Stack []*RBCell
}

// NewRBIterator returns an iterator positioned before the smallest
// element.
func NewRBIterator(t *RBTree) *RBIterator {
	defer mRBIteratorNew.Enter(nil)()
	it := &RBIterator{Tree: t}
	it.Stack = it.leftSpine(nil, t.Root)
	return it
}

// HasNext reports whether Next will succeed.
func (it *RBIterator) HasNext() bool {
	defer mRBIteratorHasNext.Enter(it)()
	return len(it.Stack) > 0
}

// Next returns the next element in order; it throws NoSuchElement when
// exhausted. The successor stack is computed before the commit.
func (it *RBIterator) Next() Item {
	defer mRBIteratorNext.Enter(it)()
	if len(it.Stack) == 0 {
		fault.Throw(fault.NoSuchElement, "RBIterator.Next", "exhausted")
	}
	cell := it.Stack[len(it.Stack)-1]
	it.Stack = it.leftSpine(it.Stack[:len(it.Stack)-1:len(it.Stack)-1], cell.Right)
	return cell.Element
}

// leftSpine appends the left spine under c to base and returns the new
// stack (read-only with respect to the iterator).
func (it *RBIterator) leftSpine(base []*RBCell, c *RBCell) []*RBCell {
	defer mRBIteratorleftSpine.Enter(it)()
	out := base
	for ; c != nil; c = c.Left {
		out = append(out, c)
	}
	return out
}

// RegisterRBIterator adds the RBTree iterator class to a registry.
func RegisterRBIterator(r *core.Registry) {
	r.Ctor("RBIterator", "RBIterator.New").
		Method("RBIterator", "HasNext").
		Method("RBIterator", "Next", fault.NoSuchElement).
		Method("RBIterator", "leftSpine")
}
