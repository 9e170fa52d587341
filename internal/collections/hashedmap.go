package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mHashedMapNew         = core.Method("HashedMap.New")
	mHashedMapSize        = core.Method("HashedMap.Size")
	mHashedMapIsEmpty     = core.Method("HashedMap.IsEmpty")
	mHashedMapPut         = core.Method("HashedMap.Put")
	mHashedMapGet         = core.Method("HashedMap.Get")
	mHashedMapContainsKey = core.Method("HashedMap.ContainsKey")
	mHashedMapRemove      = core.Method("HashedMap.Remove")
	mHashedMapClear       = core.Method("HashedMap.Clear")
	mHashedMapKeys        = core.Method("HashedMap.Keys")
	mHashedMapValues      = core.Method("HashedMap.Values")
	mHashedMaprehash      = core.Method("HashedMap.rehash")
	mHashedMaphashFor     = core.Method("HashedMap.hashFor")
	mHashedMapindexFor    = core.Method("HashedMap.indexFor")
	mHashedMapscreenValue = core.Method("HashedMap.screenValue")
)

// HMEntry is one chained entry of a HashedMap bucket.
type HMEntry struct {
	Key   Item
	Value Item
	Hash  uint32
	Next  *HMEntry
}

// HashedMap is a chained hash table in the original library's style:
// explicit threshold bookkeeping, incremental rehashing, and mutators that
// bump version and count before validation finishes.
type HashedMap struct {
	Buckets []*HMEntry
	Count   int
	Version int
	// ThresholdPct is the load factor in percent (default 75).
	ThresholdPct int
}

// DefaultHashedMapCapacity is the initial bucket count.
const DefaultHashedMapCapacity = 8

// NewHashedMap returns an empty map with the given initial bucket count.
func NewHashedMap(capacity int) *HashedMap {
	defer mHashedMapNew.Enter(nil)()
	if capacity <= 0 {
		capacity = DefaultHashedMapCapacity
	}
	return &HashedMap{Buckets: make([]*HMEntry, capacity), ThresholdPct: 75}
}

// Size returns the number of key/value pairs.
func (m *HashedMap) Size() int {
	defer mHashedMapSize.Enter(m)()
	return m.Count
}

// IsEmpty reports whether the map has no entries.
func (m *HashedMap) IsEmpty() bool {
	defer mHashedMapIsEmpty.Enter(m)()
	return m.Count == 0
}

// Put associates key with value and returns the previous value (nil if
// none). Version and count change before the rehash walk completes.
func (m *HashedMap) Put(key, value Item) Item {
	defer mHashedMapPut.Enter(m)()
	m.Version++
	h := m.hashFor(key)
	m.screenValue(value)
	idx := m.indexFor(h, len(m.Buckets))
	for e := m.Buckets[idx]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Key, key) {
			old := e.Value
			e.Value = value
			return old
		}
	}
	m.Count++
	if m.Count*100 > len(m.Buckets)*m.ThresholdPct {
		m.rehash(len(m.Buckets) * 2)
		idx = m.indexFor(h, len(m.Buckets))
	}
	m.Buckets[idx] = &HMEntry{Key: key, Value: value, Hash: h, Next: m.Buckets[idx]}
	return nil
}

// Get returns the value for key, or nil.
func (m *HashedMap) Get(key Item) Item {
	defer mHashedMapGet.Enter(m)()
	h := m.hashFor(key)
	for e := m.Buckets[m.indexFor(h, len(m.Buckets))]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Key, key) {
			return e.Value
		}
	}
	return nil
}

// ContainsKey reports whether key is present.
func (m *HashedMap) ContainsKey(key Item) bool {
	defer mHashedMapContainsKey.Enter(m)()
	h := m.hashFor(key)
	for e := m.Buckets[m.indexFor(h, len(m.Buckets))]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Key, key) {
			return true
		}
	}
	return false
}

// Remove deletes key and returns its value (nil if absent). The version is
// bumped before the key is hashed (which throws for nil keys).
func (m *HashedMap) Remove(key Item) Item {
	defer mHashedMapRemove.Enter(m)()
	m.Version++
	h := m.hashFor(key)
	idx := m.indexFor(h, len(m.Buckets))
	var prev *HMEntry
	for e := m.Buckets[idx]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Key, key) {
			if prev == nil {
				m.Buckets[idx] = e.Next
			} else {
				prev.Next = e.Next
			}
			m.Count--
			return e.Value
		}
		prev = e
	}
	return nil
}

// Clear removes all entries, keeping the bucket count.
func (m *HashedMap) Clear() {
	defer mHashedMapClear.Enter(m)()
	m.Version++
	for i := range m.Buckets {
		m.Buckets[i] = nil
	}
	m.Count = 0
}

// Keys returns the keys in bucket order.
func (m *HashedMap) Keys() []Item {
	defer mHashedMapKeys.Enter(m)()
	out := make([]Item, 0, m.Count)
	for _, b := range m.Buckets {
		for e := b; e != nil; e = e.Next {
			out = append(out, e.Key)
		}
	}
	return out
}

// Values returns the values in bucket order.
func (m *HashedMap) Values() []Item {
	defer mHashedMapValues.Enter(m)()
	out := make([]Item, 0, m.Count)
	for _, b := range m.Buckets {
		for e := b; e != nil; e = e.Next {
			out = append(out, e.Value)
		}
	}
	return out
}

// rehash relinks every entry into a table of n buckets, entry by entry;
// an exception mid-relink strands the table half-migrated (pure failure
// non-atomic, not fixable by reordering).
func (m *HashedMap) rehash(n int) {
	defer mHashedMaprehash.Enter(m)()
	old := m.Buckets
	m.Buckets = make([]*HMEntry, n)
	for _, b := range old {
		for e := b; e != nil; {
			next := e.Next
			idx := m.indexFor(e.Hash, n)
			e.Next = m.Buckets[idx]
			m.Buckets[idx] = e
			e = next
		}
	}
}

// hashFor hashes a key (throws IllegalElement for nil/unhashable keys).
func (m *HashedMap) hashFor(key Item) uint32 {
	defer mHashedMaphashFor.Enter(m)()
	return HashOf(key)
}

// indexFor maps a hash onto a bucket index.
func (m *HashedMap) indexFor(h uint32, n int) int {
	defer mHashedMapindexFor.Enter(m)()
	return int(h % uint32(n))
}

// screenValue rejects nil values (the original map stored no nulls).
func (m *HashedMap) screenValue(v Item) {
	defer mHashedMapscreenValue.Enter(m)()
	if v == nil {
		fault.Throw(fault.IllegalElement, "HashedMap.screenValue", "nil value")
	}
}

// RegisterHashedMap adds the HashedMap methods to a registry.
func RegisterHashedMap(r *core.Registry) {
	r.Ctor("HashedMap", "HashedMap.New").
		Method("HashedMap", "Size").
		Method("HashedMap", "IsEmpty").
		Method("HashedMap", "Put", fault.IllegalElement).
		Method("HashedMap", "Get", fault.IllegalElement).
		Method("HashedMap", "ContainsKey", fault.IllegalElement).
		Method("HashedMap", "Remove", fault.IllegalElement).
		Method("HashedMap", "Clear").
		Method("HashedMap", "Keys").
		Method("HashedMap", "Values").
		Method("HashedMap", "rehash").
		Method("HashedMap", "hashFor", fault.IllegalElement).
		Method("HashedMap", "indexFor").
		Method("HashedMap", "screenValue", fault.IllegalElement)
}
