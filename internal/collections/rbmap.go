package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mRBMapNew         = core.Method("RBMap.New")
	mRBMapSize        = core.Method("RBMap.Size")
	mRBMapIsEmpty     = core.Method("RBMap.IsEmpty")
	mRBMapPut         = core.Method("RBMap.Put")
	mRBMapGet         = core.Method("RBMap.Get")
	mRBMapContainsKey = core.Method("RBMap.ContainsKey")
	mRBMapRemove      = core.Method("RBMap.Remove")
	mRBMapMinKey      = core.Method("RBMap.MinKey")
	mRBMapMaxKey      = core.Method("RBMap.MaxKey")
	mRBMapClear       = core.Method("RBMap.Clear")
	mRBMapKeys        = core.Method("RBMap.Keys")
	mRBMapValues      = core.Method("RBMap.Values")
	mRBMapcheckKey    = core.Method("RBMap.checkKey")
)

// RBPair is the key/value element an RBMap stores in its tree.
type RBPair struct {
	Key   Item
	Value Item
}

// RBMap is a sorted map layered over an RBTree of *RBPair, exactly like
// the original library's RBMap over RBCell machinery. Its methods are
// mostly conditional failure non-atomic: they delegate the risky work to
// the tree.
type RBMap struct {
	Tree    *RBTree
	Version int
}

// NewRBMap returns an empty sorted map with keys ordered by cmp
// (DefaultCompare if nil).
func NewRBMap(cmp Comparator) *RBMap {
	defer mRBMapNew.Enter(nil)()
	if cmp == nil {
		cmp = DefaultCompare
	}
	pairCmp := func(a, b Item) int {
		return cmp(a.(*RBPair).Key, b.(*RBPair).Key)
	}
	return &RBMap{Tree: NewRBTree(pairCmp)}
}

// Size returns the number of pairs.
func (m *RBMap) Size() int {
	defer mRBMapSize.Enter(m)()
	return m.Tree.Size()
}

// IsEmpty reports whether the map has no pairs.
func (m *RBMap) IsEmpty() bool {
	defer mRBMapIsEmpty.Enter(m)()
	return m.Tree.IsEmpty()
}

// Put associates key with value and returns the previous value (nil if
// none). The version bump precedes key validation (original idiom).
func (m *RBMap) Put(key, value Item) Item {
	defer mRBMapPut.Enter(m)()
	m.Version++
	m.checkKey(key)
	probe := &RBPair{Key: key}
	if cell := m.Tree.FindCell(probe); cell != nil {
		pair := cell.Element.(*RBPair)
		old := pair.Value
		pair.Value = value
		return old
	}
	m.Tree.Insert(&RBPair{Key: key, Value: value})
	return nil
}

// Get returns the value for key, or nil.
func (m *RBMap) Get(key Item) Item {
	defer mRBMapGet.Enter(m)()
	m.checkKey(key)
	cell := m.Tree.FindCell(&RBPair{Key: key})
	if cell == nil {
		return nil
	}
	return cell.Element.(*RBPair).Value
}

// ContainsKey reports whether key is present.
func (m *RBMap) ContainsKey(key Item) bool {
	defer mRBMapContainsKey.Enter(m)()
	m.checkKey(key)
	return m.Tree.FindCell(&RBPair{Key: key}) != nil
}

// Remove deletes key and returns its value (nil if absent).
func (m *RBMap) Remove(key Item) Item {
	defer mRBMapRemove.Enter(m)()
	m.Version++
	m.checkKey(key)
	cell := m.Tree.FindCell(&RBPair{Key: key})
	if cell == nil {
		return nil
	}
	v := cell.Element.(*RBPair).Value
	m.Tree.RemoveCell(cell)
	return v
}

// MinKey returns the smallest key.
func (m *RBMap) MinKey() Item {
	defer mRBMapMinKey.Enter(m)()
	return m.Tree.Min().(*RBPair).Key
}

// MaxKey returns the largest key.
func (m *RBMap) MaxKey() Item {
	defer mRBMapMaxKey.Enter(m)()
	return m.Tree.Max().(*RBPair).Key
}

// Clear removes all pairs.
func (m *RBMap) Clear() {
	defer mRBMapClear.Enter(m)()
	m.Version++
	m.Tree.Clear()
}

// Keys returns the keys in sorted order.
func (m *RBMap) Keys() []Item {
	defer mRBMapKeys.Enter(m)()
	pairs := m.Tree.ToSlice()
	out := make([]Item, len(pairs))
	for i, p := range pairs {
		out[i] = p.(*RBPair).Key
	}
	return out
}

// Values returns the values in key order.
func (m *RBMap) Values() []Item {
	defer mRBMapValues.Enter(m)()
	pairs := m.Tree.ToSlice()
	out := make([]Item, len(pairs))
	for i, p := range pairs {
		out[i] = p.(*RBPair).Value
	}
	return out
}

// checkKey rejects nil keys.
func (m *RBMap) checkKey(key Item) {
	defer mRBMapcheckKey.Enter(m)()
	if key == nil {
		fault.Throw(fault.IllegalElement, "RBMap.checkKey", "nil key")
	}
}

// RegisterRBMap adds the RBMap methods (and the tree it delegates to) to a
// registry.
func RegisterRBMap(r *core.Registry) {
	RegisterRBTree(r)
	r.Ctor("RBMap", "RBMap.New").
		Method("RBMap", "Size").
		Method("RBMap", "IsEmpty").
		Method("RBMap", "Put", fault.IllegalElement, fault.IllegalArgument).
		Method("RBMap", "Get", fault.IllegalElement).
		Method("RBMap", "ContainsKey", fault.IllegalElement).
		Method("RBMap", "Remove", fault.IllegalElement).
		Method("RBMap", "MinKey", fault.NoSuchElement).
		Method("RBMap", "MaxKey", fault.NoSuchElement).
		Method("RBMap", "Clear").
		Method("RBMap", "Keys").
		Method("RBMap", "Values").
		Method("RBMap", "checkKey", fault.IllegalElement)
}
