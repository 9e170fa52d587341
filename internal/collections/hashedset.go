package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mHashedSetNew        = core.Method("HashedSet.New")
	mHashedSetSize       = core.Method("HashedSet.Size")
	mHashedSetIsEmpty    = core.Method("HashedSet.IsEmpty")
	mHashedSetInclude    = core.Method("HashedSet.Include")
	mHashedSetExclude    = core.Method("HashedSet.Exclude")
	mHashedSetIncludes   = core.Method("HashedSet.Includes")
	mHashedSetIncludeAll = core.Method("HashedSet.IncludeAll")
	mHashedSetClear      = core.Method("HashedSet.Clear")
	mHashedSetToSlice    = core.Method("HashedSet.ToSlice")
	mHashedSetrehash     = core.Method("HashedSet.rehash")
	mHashedSetspread     = core.Method("HashedSet.spread")
	mHashedSetscreen     = core.Method("HashedSet.screen")
)

// HSEntry is one chained entry of a HashedSet bucket.
type HSEntry struct {
	Element Item
	Hash    uint32
	Next    *HSEntry
}

// HashedSet is a chained hash set with screening and versioning.
type HashedSet struct {
	Buckets []*HSEntry
	Count   int
	Version int
	Screen  Screener
}

// DefaultHashedSetCapacity is the initial bucket count.
const DefaultHashedSetCapacity = 8

// NewHashedSet returns an empty set.
func NewHashedSet(capacity int, screen Screener) *HashedSet {
	defer mHashedSetNew.Enter(nil)()
	if capacity <= 0 {
		capacity = DefaultHashedSetCapacity
	}
	return &HashedSet{Buckets: make([]*HSEntry, capacity), Screen: screen}
}

// Size returns the number of elements.
func (s *HashedSet) Size() int {
	defer mHashedSetSize.Enter(s)()
	return s.Count
}

// IsEmpty reports whether the set has no elements.
func (s *HashedSet) IsEmpty() bool {
	defer mHashedSetIsEmpty.Enter(s)()
	return s.Count == 0
}

// Include adds v if absent and reports whether the set changed. Count is
// bumped before the possible rehash (original idiom).
func (s *HashedSet) Include(v Item) bool {
	defer mHashedSetInclude.Enter(s)()
	s.Version++
	s.screen(v)
	h := HashOf(v)
	idx := int(h % uint32(len(s.Buckets)))
	for e := s.Buckets[idx]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Element, v) {
			return false
		}
	}
	s.Count++
	if s.Count*4 > len(s.Buckets)*3 {
		s.rehash(len(s.Buckets) * 2)
		idx = int(h % uint32(len(s.Buckets)))
	}
	s.Buckets[idx] = &HSEntry{Element: v, Hash: h, Next: s.Buckets[idx]}
	return true
}

// Exclude removes v if present and reports whether the set changed.
func (s *HashedSet) Exclude(v Item) bool {
	defer mHashedSetExclude.Enter(s)()
	s.Version++
	s.screen(v)
	h := HashOf(v)
	idx := int(h % uint32(len(s.Buckets)))
	var prev *HSEntry
	for e := s.Buckets[idx]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Element, v) {
			if prev == nil {
				s.Buckets[idx] = e.Next
			} else {
				prev.Next = e.Next
			}
			s.Count--
			return true
		}
		prev = e
	}
	return false
}

// Includes reports whether v is in the set.
func (s *HashedSet) Includes(v Item) bool {
	defer mHashedSetIncludes.Enter(s)()
	if v == nil {
		return false
	}
	h := HashOf(v)
	for e := s.Buckets[int(h%uint32(len(s.Buckets)))]; e != nil; e = e.Next {
		if e.Hash == h && SameItem(e.Element, v) {
			return true
		}
	}
	return false
}

// IncludeAll adds every element of vals; partial progress on exception is
// inherent (pure failure non-atomic).
func (s *HashedSet) IncludeAll(vals []Item) int {
	defer mHashedSetIncludeAll.Enter(s)()
	added := 0
	for _, v := range vals {
		if s.Include(v) {
			added++
		}
	}
	return added
}

// Clear removes all elements, keeping the bucket count.
func (s *HashedSet) Clear() {
	defer mHashedSetClear.Enter(s)()
	s.Version++
	for i := range s.Buckets {
		s.Buckets[i] = nil
	}
	s.Count = 0
}

// ToSlice copies the elements into a fresh slice in bucket order.
func (s *HashedSet) ToSlice() []Item {
	defer mHashedSetToSlice.Enter(s)()
	out := make([]Item, 0, s.Count)
	for _, b := range s.Buckets {
		for e := b; e != nil; e = e.Next {
			out = append(out, e.Element)
		}
	}
	return out
}

// rehash relinks the entries into n buckets, entry by entry.
func (s *HashedSet) rehash(n int) {
	defer mHashedSetrehash.Enter(s)()
	old := s.Buckets
	s.Buckets = make([]*HSEntry, n)
	for _, b := range old {
		for e := b; e != nil; {
			next := e.Next
			idx := s.spread(e.Hash, n)
			e.Next = s.Buckets[idx]
			s.Buckets[idx] = e
			e = next
		}
	}
}

// spread maps a hash onto a bucket index of an n-bucket table.
func (s *HashedSet) spread(h uint32, n int) int {
	defer mHashedSetspread.Enter(s)()
	return int(h % uint32(n))
}

// screen validates an element.
func (s *HashedSet) screen(v Item) {
	defer mHashedSetscreen.Enter(s)()
	checkElement("HashedSet.screen", s.Screen, v)
}

// RegisterHashedSet adds the HashedSet methods to a registry.
func RegisterHashedSet(r *core.Registry) {
	r.Ctor("HashedSet", "HashedSet.New").
		Method("HashedSet", "Size").
		Method("HashedSet", "IsEmpty").
		Method("HashedSet", "Include", fault.IllegalElement).
		Method("HashedSet", "Exclude", fault.IllegalElement).
		Method("HashedSet", "Includes").
		Method("HashedSet", "IncludeAll", fault.IllegalElement).
		Method("HashedSet", "Clear").
		Method("HashedSet", "ToSlice").
		Method("HashedSet", "rehash").
		Method("HashedSet", "spread").
		Method("HashedSet", "screen", fault.IllegalElement)
}
