package core

import (
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
)

// Method handles. Every instrumented method has one process-wide
// MethodHandle, interned by name and resolved once, normally in a
// package-level variable:
//
//	var mPut = core.Method("RBMap.Put")
//
//	func (m *RBMap) Put(k, v Item) {
//		defer mPut.Enter(m)()
//		...
//	}
//
// A handle is immutable and carries a dense id, numbered in interning
// order. Everything the prologue needs about the method in a session (call
// counter, injection and mask flags, masking statistics) sits in the
// session's slot for that id, and a SpanIndex keeps its clean-run spans in
// the row for that id; both find the slot or row through an int32 array
// indexed by the id, so a wrapped call hashes no name and a session keeps
// room only for the methods it calls. Because the id belongs to the
// process rather than to a campaign, a call writes no shared state, and
// sessions of concurrent campaigns use the same handles without
// coordinating. Names stay the key at every boundary: marks, MarkCalls,
// Calls() and MaskStats() carry names, so no output depends on the
// numbering. The string Enter looks its name's handle up (interning it
// on first use) and takes the same path.

// MethodHandle is one instrumented method's process-wide identity.
type MethodHandle struct {
	id   int32
	name string
}

// Name returns the handle's instrumentation name.
func (h *MethodHandle) Name() string { return h.name }

// handleTable is the process-wide intern table. byName is its lock-free
// read side: an immutable copy of all, published by the first lookup of
// an interned name after a new name was added (nil until then). So the
// interning at package init costs one map insert per handle, and a lookup
// by name (the string Enter) takes no lock once the names stop changing.
type handleTable struct {
	mu     sync.Mutex
	all    map[string]*MethodHandle
	byName atomic.Pointer[map[string]*MethodHandle]
}

var handles handleTable

// Method returns the handle of the named method, interning it on first
// use. Every call with the same name returns the same handle.
func Method(name string) *MethodHandle {
	if m := handles.byName.Load(); m != nil {
		if h := (*m)[name]; h != nil {
			return h
		}
	}
	t := &handles
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.all[name]; h != nil {
		t.publish()
		return h
	}
	if t.all == nil {
		t.all = make(map[string]*MethodHandle)
	}
	h := &MethodHandle{id: int32(len(t.all)), name: name}
	t.all[name] = h
	t.byName.Store(nil)
	return h
}

// lookupMethod returns the handle interned for name, or nil; it interns
// nothing.
func lookupMethod(name string) *MethodHandle {
	if m := handles.byName.Load(); m != nil {
		return (*m)[name]
	}
	t := &handles
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publish()
	return t.all[name]
}

// publish makes a copy of all the read side, unless one is published.
// Called with mu held.
func (t *handleTable) publish() {
	if t.byName.Load() == nil {
		m := maps.Clone(t.all)
		t.byName.Store(&m)
	}
}

// method is one method's state in a session's current run. Its counters
// restart on the method's first call after NewSession or Reset (gen tells
// a stale slot from a current one). Its facts, which a call reads from the
// slot instead of hashing its name into each config map, are resolved
// when the slot is added, and Reset drops every slot when the config they
// come from changes, so a campaign's runs share them.
type method struct {
	gen   uint64
	h     *MethodHandle
	calls int64
	// info is the method's Registry entry (nil when unregistered); inject
	// is Config.Inject minus the ExceptionFree methods.
	info   *MethodInfo
	inject bool
	// mask: Config.Mask covers this method (MaskAll or MaskMethods).
	mask bool
	// diff: Config.DiffCalls lists at least one call of this method, so
	// its calls must be looked up there; other methods are outside it.
	diff bool
	stat MaskStat
}

// state returns h's slot for the current run, adding it on the session's
// first call of h and resolving it first when it is new or stale. The
// pointer is valid until the next call adds a slot.
func (s *Session) state(h *MethodHandle) *method {
	if int(h.id) >= len(s.ids) {
		s.ids = append(s.ids, make([]int32, int(h.id)+1-len(s.ids))...)
	}
	i := s.ids[h.id]
	if i == 0 {
		s.slots = append(s.slots, method{})
		i = int32(len(s.slots))
		s.ids[h.id] = i
	}
	m := &s.slots[i-1]
	if m.gen != s.gen {
		s.renew(m, h)
	}
	return m
}

// renew readies a stale slot for the current run: zeroed counters, and,
// for a slot just added, its facts resolved from the config.
func (s *Session) renew(m *method, h *MethodHandle) {
	added := m.h == nil
	m.gen, m.h = s.gen, h
	m.calls, m.diff, m.stat = 0, false, MaskStat{}
	if !added {
		return
	}
	if s.cfg.Inject {
		m.inject = !s.cfg.ExceptionFree[h.name]
		m.info = s.cfg.Registry.Info(h.name)
	}
	m.mask = s.cfg.Mask && (s.cfg.MaskAll || s.cfg.MaskMethods[h.name])
}

// sameFacts reports whether a and b resolve every method's facts alike
// without looking: the same switches, and the very same registry and
// maps. Maps are compared by identity; the session's config keeps the
// old ones alive, so a new map cannot reuse an old one's address.
func sameFacts(a, b *Config) bool {
	return a.Inject == b.Inject && a.Mask == b.Mask && a.MaskAll == b.MaskAll &&
		a.Registry == b.Registry &&
		sameMap(a.ExceptionFree, b.ExceptionFree) && sameMap(a.MaskMethods, b.MaskMethods)
}

// sameMap reports whether a and b are the same map (or both nil).
func sameMap(a, b map[string]bool) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
