package core

import "slices"

// Dense method ids. A wrapped call pays one map[string]int32 lookup to
// turn its instrumentation name into a dense id; everything else the
// prologue needs about the method (call counter, injection and mask
// flags, masking statistics, and the clean-run spans of SpanIndex) is
// then indexed by that id. Names stay the key at every boundary: marks,
// MarkCalls, Calls() and MaskStats() carry names, so no output depends on
// the numbering.

// methodTable interns instrumentation names into dense ids: the id of a
// new name is len(names), and names maps every id back. A campaign's table
// is built once from its clean run (see IndexSpans) and then shared
// read-only by every session of the sweep.
type methodTable struct {
	ids   map[string]int32
	names []string
}

func newMethodTable(n int) *methodTable {
	return &methodTable{ids: make(map[string]int32, n), names: make([]string, 0, n)}
}

// intern returns name's id, adding it when it is new.
func (t *methodTable) intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// method is one interned method's state in a session's current run. It
// is resolved on the method's first call after NewSession or Reset (gen
// tells a stale slot from a current one), so a call reads its facts from
// the slot instead of hashing its name into each config map.
type method struct {
	gen   uint64
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

// methodID returns name's dense id in this session: the campaign table's
// id when the session has one and it knows name, else an id local to the
// session. Local ids follow the campaign's and have no span row, so such
// a call counts as one that may unwind.
func (s *Session) methodID(name string) int32 {
	if s.base != nil {
		if id, ok := s.base.ids[name]; ok {
			return id
		}
	}
	return s.own.intern(name)
}

// rebase makes t the session's campaign table. Local ids are numbered
// after the table's, so they and every slot are dropped.
func (s *Session) rebase(t *methodTable) {
	s.base = t
	// Clip: a local id appended later must copy, not write into the
	// shared table's spare capacity.
	s.own.names = slices.Clip(t.names)
	clear(s.own.ids)
	clear(s.slots)
	s.slots = s.slots[:0]
}

// state returns id's slot for the current run, resolving it first when
// it is new or stale. The pointer is valid until the next call interns a
// new method.
func (s *Session) state(id int32) *method {
	if int(id) >= len(s.slots) {
		s.slots = append(s.slots, make([]method, int(id)+1-len(s.slots))...)
	}
	m := &s.slots[id]
	if m.gen != s.gen {
		s.resolve(m, id)
	}
	return m
}

// resolve fills a slot from the current config, with zeroed counters.
func (s *Session) resolve(m *method, id int32) {
	name := s.own.names[id]
	*m = method{gen: s.gen}
	if s.cfg.Inject {
		m.inject = !s.cfg.ExceptionFree[name]
		m.info = s.cfg.Registry.Info(name)
	}
	m.mask = s.cfg.Mask && (s.cfg.MaskAll || s.cfg.MaskMethods[name])
}
