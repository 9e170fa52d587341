// Mutex-guarded concurrent wrappers. These are the targets of the
// concurrent-object detection mode (internal/concur): each method holds
// the wrapper's lock around its delegated call, so every individual
// operation is thread-safe — but the compound methods (InsertPair,
// PutFresh) span *two* critical sections, and the window between them is
// exactly the non-atomicity a concurrent faulted schedule exposes and a
// single-threaded campaign cannot.
//
// The Gap hook marks that window: the concurrent driver points it at its
// scheduler yield so other workers can run inside the window
// deterministically. Single-threaded campaigns leave it nil, making the
// window unobservable — which is why LockedList.InsertPair classifies
// failure atomic under the default campaign (its failure path compensates
// completely) while the same faulted method is non-linearizable under a
// concurrent schedule.
//
// The instrumented receiver of every wrapper method is the *inner*
// collection: snapshots, checkpoints and marks see the guarded state, not
// the mutex or the Gap hook.
package collections

import (
	"sync"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mLockedListNew         = core.Method("LockedList.New")
	mLockedListSize        = core.Method("LockedList.Size")
	mLockedListFirst       = core.Method("LockedList.First")
	mLockedListInsertFirst = core.Method("LockedList.InsertFirst")
	mLockedListRemoveFirst = core.Method("LockedList.RemoveFirst")
	mLockedListRemoveOne   = core.Method("LockedList.RemoveOne")
	mLockedListIncludes    = core.Method("LockedList.Includes")
	mLockedListToSlice     = core.Method("LockedList.ToSlice")
	mLockedListInsertPair  = core.Method("LockedList.InsertPair")
	mLockedRBMapNew        = core.Method("LockedRBMap.New")
	mLockedRBMapSize       = core.Method("LockedRBMap.Size")
	mLockedRBMapGet        = core.Method("LockedRBMap.Get")
	mLockedRBMapPut        = core.Method("LockedRBMap.Put")
	mLockedRBMapRemove     = core.Method("LockedRBMap.Remove")
	mLockedRBMapKeys       = core.Method("LockedRBMap.Keys")
	mLockedRBMapValues     = core.Method("LockedRBMap.Values")
	mLockedRBMapPutFresh   = core.Method("LockedRBMap.PutFresh")
)

// protect runs f and returns the value of an exception escaping it (nil
// on normal completion), so compound methods can compensate and rethrow.
func protect(f func()) (exc any) {
	defer func() { exc = recover() }()
	f()
	return nil
}

// LockedLinkedList guards a LinkedList with a mutex.
type LockedLinkedList struct {
	mu sync.Mutex
	// List is the guarded list; wrapper methods delegate to it under mu.
	List *LinkedList
	// Gap, when set, is called between the two critical sections of
	// compound methods — the concurrent driver's deterministic yield
	// point. Nil (the default) makes the window unobservable.
	Gap func()
}

// NewLockedLinkedList returns an empty locked list with an optional
// element screener.
func NewLockedLinkedList(screen Screener) *LockedLinkedList {
	defer mLockedListNew.Enter(nil)()
	return &LockedLinkedList{List: NewLinkedList(screen)}
}

// yield is scheduler plumbing, not a subject method: no prologue, no
// injection points — the gap window must not perturb the point space.
//
//failatomic:ignore
func (l *LockedLinkedList) yield() {
	if l.Gap != nil {
		l.Gap()
	}
}

// Size returns the number of elements.
func (l *LockedLinkedList) Size() int {
	defer mLockedListSize.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.List.Size()
}

// First returns the first element; it throws NoSuchElement when empty.
func (l *LockedLinkedList) First() Item {
	defer mLockedListFirst.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.List.First()
}

// InsertFirst prepends v under the lock.
func (l *LockedLinkedList) InsertFirst(v Item) {
	defer mLockedListInsertFirst.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.List.InsertFirst(v)
}

// RemoveFirst removes and returns the first element under the lock.
func (l *LockedLinkedList) RemoveFirst() Item {
	defer mLockedListRemoveFirst.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.List.RemoveFirst()
}

// RemoveOne removes the first occurrence of v under the lock.
func (l *LockedLinkedList) RemoveOne(v Item) bool {
	defer mLockedListRemoveOne.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.List.RemoveOne(v)
}

// Includes reports whether v occurs in the list.
func (l *LockedLinkedList) Includes(v Item) bool {
	defer mLockedListIncludes.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.List.Includes(v)
}

// ToSlice copies the elements into a fresh slice under the lock.
func (l *LockedLinkedList) ToSlice() []Item {
	defer mLockedListToSlice.Enter(l.List)()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.List.ToSlice()
}

// InsertPair prepends the pair (a, b) — after it returns, a is first and
// b second — in two critical sections: the first commits both inserts,
// the second re-screens the committed pair (the double-validation idiom).
// Every failure path compensates completely — inserted elements are
// removed and the version restored — so a single-threaded campaign
// classifies the method failure atomic. Between the two critical sections
// (the Gap) the committed pair is visible to other threads; a fault in
// the second section then retracts state another thread may already have
// consumed, which no linearization of the sequential model can explain.
func (l *LockedLinkedList) InsertPair(a, b Item) {
	defer mLockedListInsertPair.Enter(l.List)()
	l.mu.Lock()
	saved := l.List.Version
	inserted := 0
	if exc := protect(func() {
		l.List.InsertFirst(b)
		inserted++
		l.List.InsertFirst(a)
		inserted++
	}); exc != nil {
		if inserted >= 2 {
			l.List.RemoveOne(a)
		}
		if inserted >= 1 {
			l.List.RemoveOne(b)
		}
		l.List.Version = saved
		l.mu.Unlock()
		panic(exc)
	}
	l.mu.Unlock()
	l.yield()
	l.mu.Lock()
	if exc := protect(func() {
		l.List.screen(a)
		l.List.screen(b)
	}); exc != nil {
		l.List.RemoveOne(a)
		l.List.RemoveOne(b)
		l.List.Version = saved
		l.mu.Unlock()
		panic(exc)
	}
	l.mu.Unlock()
}

// RegisterLockedLinkedList adds the locked-list methods (and the inner
// list they delegate to) to a registry.
func RegisterLockedLinkedList(r *core.Registry) {
	RegisterLinkedList(r)
	r.Ctor("LockedList", "LockedList.New").
		Method("LockedList", "Size").
		Method("LockedList", "First", fault.NoSuchElement).
		Method("LockedList", "InsertFirst", fault.IllegalElement).
		Method("LockedList", "RemoveFirst", fault.NoSuchElement).
		Method("LockedList", "RemoveOne", fault.IllegalElement).
		Method("LockedList", "Includes").
		Method("LockedList", "ToSlice").
		Method("LockedList", "InsertPair", fault.IllegalElement)
}

// LockedRBMap guards an RBMap with a mutex.
type LockedRBMap struct {
	mu sync.Mutex
	// Map is the guarded map; wrapper methods delegate to it under mu.
	Map *RBMap
	// Gap, when set, is called between the two critical sections of
	// compound methods (see LockedLinkedList.Gap).
	Gap func()
}

// NewLockedRBMap returns an empty locked sorted map.
func NewLockedRBMap(cmp Comparator) *LockedRBMap {
	defer mLockedRBMapNew.Enter(nil)()
	return &LockedRBMap{Map: NewRBMap(cmp)}
}

// yield is scheduler plumbing, like LockedLinkedList.yield.
//
//failatomic:ignore
func (m *LockedRBMap) yield() {
	if m.Gap != nil {
		m.Gap()
	}
}

// Size returns the number of pairs.
func (m *LockedRBMap) Size() int {
	defer mLockedRBMapSize.Enter(m.Map)()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Map.Size()
}

// Get returns the value for key, or nil.
func (m *LockedRBMap) Get(key Item) Item {
	defer mLockedRBMapGet.Enter(m.Map)()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Map.Get(key)
}

// Put associates key with value under the lock and returns the previous
// value (nil if none).
func (m *LockedRBMap) Put(key, value Item) Item {
	defer mLockedRBMapPut.Enter(m.Map)()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Map.Put(key, value)
}

// Remove deletes key under the lock and returns its value (nil if
// absent).
func (m *LockedRBMap) Remove(key Item) Item {
	defer mLockedRBMapRemove.Enter(m.Map)()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Map.Remove(key)
}

// Keys returns the keys in sorted order.
func (m *LockedRBMap) Keys() []Item {
	defer mLockedRBMapKeys.Enter(m.Map)()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Map.Keys()
}

// Values returns the values in key order.
func (m *LockedRBMap) Values() []Item {
	defer mLockedRBMapValues.Enter(m.Map)()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Map.Values()
}

// PutFresh inserts key→value and then, in a second critical section,
// asserts the key was fresh: a replaced previous value throws
// IllegalArgument *after* the replacement committed, with no
// compensation. Sequentially that is honest committed-then-throw
// non-atomicity the detector reports; under a concurrent faulted schedule
// the same shape is what the linearization checker calls non-atomic but
// linearizable — the faulted operation's full effect explains the
// history.
func (m *LockedRBMap) PutFresh(key, value Item) {
	defer mLockedRBMapPutFresh.Enter(m.Map)()
	m.mu.Lock()
	var old Item
	if exc := protect(func() { old = m.Map.Put(key, value) }); exc != nil {
		m.mu.Unlock()
		panic(exc)
	}
	m.mu.Unlock()
	m.yield()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Map.checkKey(key)
	if old != nil {
		fault.Throw(fault.IllegalArgument, "LockedRBMap.PutFresh",
			"key %v was not fresh (replaced %v)", key, old)
	}
}

// RegisterLockedRBMap adds the locked-map methods (and the inner map they
// delegate to) to a registry.
func RegisterLockedRBMap(r *core.Registry) {
	RegisterRBMap(r)
	r.Ctor("LockedRBMap", "LockedRBMap.New").
		Method("LockedRBMap", "Size").
		Method("LockedRBMap", "Get", fault.IllegalElement).
		Method("LockedRBMap", "Put", fault.IllegalElement, fault.IllegalArgument).
		Method("LockedRBMap", "Remove", fault.IllegalElement).
		Method("LockedRBMap", "Keys").
		Method("LockedRBMap", "Values").
		Method("LockedRBMap", "PutFresh", fault.IllegalElement, fault.IllegalArgument)
}
