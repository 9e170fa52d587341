package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mLLMapNew           = core.Method("LLMap.New")
	mLLMapSize          = core.Method("LLMap.Size")
	mLLMapIsEmpty       = core.Method("LLMap.IsEmpty")
	mLLMapPut           = core.Method("LLMap.Put")
	mLLMapGet           = core.Method("LLMap.Get")
	mLLMapContainsKey   = core.Method("LLMap.ContainsKey")
	mLLMapContainsValue = core.Method("LLMap.ContainsValue")
	mLLMapRemove        = core.Method("LLMap.Remove")
	mLLMapPutAll        = core.Method("LLMap.PutAll")
	mLLMapClear         = core.Method("LLMap.Clear")
	mLLMapKeys          = core.Method("LLMap.Keys")
	mLLMapValues        = core.Method("LLMap.Values")
	mLLMapfind          = core.Method("LLMap.find")
	mLLMapcheckKey      = core.Method("LLMap.checkKey")
	mLLMapscreenValue   = core.Method("LLMap.screenValue")
)

// LLPair is one key/value cell of an LLMap association list.
type LLPair struct {
	Key   Item
	Value Item
	Next  *LLPair
}

// LLMap is a linked (association-list) map: lookups walk the chain, new
// pairs are prepended. Mutators follow the version-first idiom.
type LLMap struct {
	Head    *LLPair
	Count   int
	Version int
}

// NewLLMap returns an empty association-list map.
func NewLLMap() *LLMap {
	defer mLLMapNew.Enter(nil)()
	return &LLMap{}
}

// Size returns the number of pairs.
func (m *LLMap) Size() int {
	defer mLLMapSize.Enter(m)()
	return m.Count
}

// IsEmpty reports whether the map has no pairs.
func (m *LLMap) IsEmpty() bool {
	defer mLLMapIsEmpty.Enter(m)()
	return m.Count == 0
}

// Put associates key with value, returning the previous value (nil if
// none). Count is bumped before the value is screened.
func (m *LLMap) Put(key, value Item) Item {
	defer mLLMapPut.Enter(m)()
	m.Version++
	m.checkKey(key)
	pair := m.find(key)
	if pair != nil {
		old := pair.Value
		m.screenValue(value)
		pair.Value = value
		return old
	}
	m.Count++
	m.screenValue(value)
	m.Head = &LLPair{Key: key, Value: value, Next: m.Head}
	return nil
}

// Get returns the value for key, or nil.
func (m *LLMap) Get(key Item) Item {
	defer mLLMapGet.Enter(m)()
	pair := m.find(key)
	if pair == nil {
		return nil
	}
	return pair.Value
}

// ContainsKey reports whether key is present.
func (m *LLMap) ContainsKey(key Item) bool {
	defer mLLMapContainsKey.Enter(m)()
	return m.find(key) != nil
}

// ContainsValue reports whether any pair holds value.
func (m *LLMap) ContainsValue(value Item) bool {
	defer mLLMapContainsValue.Enter(m)()
	for p := m.Head; p != nil; p = p.Next {
		if SameItem(p.Value, value) {
			return true
		}
	}
	return false
}

// Remove deletes key and returns its value (nil if absent).
func (m *LLMap) Remove(key Item) Item {
	defer mLLMapRemove.Enter(m)()
	m.Version++
	m.checkKey(key)
	if m.Head == nil {
		return nil
	}
	if SameItem(m.Head.Key, key) {
		v := m.Head.Value
		m.Head = m.Head.Next
		m.Count--
		return v
	}
	for p := m.Head; p.Next != nil; p = p.Next {
		if SameItem(p.Next.Key, key) {
			v := p.Next.Value
			p.Next = p.Next.Next
			m.Count--
			return v
		}
	}
	return nil
}

// PutAll inserts every pair of keys/values; partial progress on exception
// is inherent.
func (m *LLMap) PutAll(keys, values []Item) {
	defer mLLMapPutAll.Enter(m)()
	if len(keys) != len(values) {
		fault.Throw(fault.IllegalArgument, "LLMap.PutAll",
			"length mismatch %d != %d", len(keys), len(values))
	}
	for i := range keys {
		m.Put(keys[i], values[i])
	}
}

// Clear removes all pairs.
func (m *LLMap) Clear() {
	defer mLLMapClear.Enter(m)()
	m.Version++
	m.Head = nil
	m.Count = 0
}

// Keys returns the keys, newest first.
func (m *LLMap) Keys() []Item {
	defer mLLMapKeys.Enter(m)()
	out := make([]Item, 0, m.Count)
	for p := m.Head; p != nil; p = p.Next {
		out = append(out, p.Key)
	}
	return out
}

// Values returns the values, newest first.
func (m *LLMap) Values() []Item {
	defer mLLMapValues.Enter(m)()
	out := make([]Item, 0, m.Count)
	for p := m.Head; p != nil; p = p.Next {
		out = append(out, p.Value)
	}
	return out
}

// find returns the pair holding key, or nil.
func (m *LLMap) find(key Item) *LLPair {
	defer mLLMapfind.Enter(m)()
	for p := m.Head; p != nil; p = p.Next {
		if SameItem(p.Key, key) {
			return p
		}
	}
	return nil
}

// checkKey rejects nil keys.
func (m *LLMap) checkKey(key Item) {
	defer mLLMapcheckKey.Enter(m)()
	if key == nil {
		fault.Throw(fault.IllegalElement, "LLMap.checkKey", "nil key")
	}
}

// screenValue rejects nil values.
func (m *LLMap) screenValue(v Item) {
	defer mLLMapscreenValue.Enter(m)()
	if v == nil {
		fault.Throw(fault.IllegalElement, "LLMap.screenValue", "nil value")
	}
}

// RegisterLLMap adds the LLMap methods to a registry.
func RegisterLLMap(r *core.Registry) {
	r.Ctor("LLMap", "LLMap.New").
		Method("LLMap", "Size").
		Method("LLMap", "IsEmpty").
		Method("LLMap", "Put", fault.IllegalElement).
		Method("LLMap", "Get").
		Method("LLMap", "ContainsKey").
		Method("LLMap", "ContainsValue").
		Method("LLMap", "Remove", fault.IllegalElement).
		Method("LLMap", "PutAll", fault.IllegalArgument, fault.IllegalElement).
		Method("LLMap", "Clear").
		Method("LLMap", "Keys").
		Method("LLMap", "Values").
		Method("LLMap", "find").
		Method("LLMap", "checkKey", fault.IllegalElement).
		Method("LLMap", "screenValue", fault.IllegalElement)
}
