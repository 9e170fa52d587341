package objgraph

import (
	"reflect"
	"sort"
	"sync"
	"unsafe"

	"failatomic/internal/typeplan"
)

// walker is the state of one canonical traversal. Fingerprint, Capture
// and DiffLive each take a pooled one for the length of a call (Diff only
// for its node stack), or run on a Scratch's own, so a warm traversal
// allocates none of its scratch.
type walker struct {
	// refs numbers the references the traversal meets. A slice's key has
	// capacity 0: two views of one array with the same length are one
	// reference whatever their capacities.
	refs typeplan.RefTable
	// entries is the map-entry sort scratch, a stack of per-map runs.
	entries []mapEntry
	// scratch is reused for byte extraction from unexported slices and
	// unaddressable arrays.
	scratch []byte
	// label holds the "[i]" label of an index past the interned ones
	// (see indexLabelView).
	label []byte
	// stack holds the graph nodes from a root down to the one a diff is
	// comparing, so the path to a difference is spelled only once found.
	// Each pop clears its slot, so a walk that returns normally leaves
	// nothing for the pool to keep alive.
	stack []*Node
	// dyn caches the plans of the dynamic types of the roots and of the
	// values met behind interfaces.
	dyn planCache
	// mapVals are the addressable temps Fingerprint copies map values
	// into, one per depth of the maps it is inside, so its kernel reads a
	// value through a pointer like any other; mapDepth is that depth.
	mapVals  []reflect.Value
	mapDepth int
}

// planCache is a small inline cache in front of typeplan.For for the
// dynamic types of interface-held values: the receivers a session
// snapshots and the elements of a container of Items come in a handful of
// types, so a few entries, replaced round-robin, hit on nearly every
// lookup without the global map's load. (On the campaign-heavy apps four
// entries thrash on five alternating types; eight miss about 0.3% of
// lookups.) It is keyed by the runtime type word, the first word of an
// interface holding the value, so a hit is one pointer compare. Plans are
// immutable and never dropped, so entries stay valid across walks.
type planCache struct {
	words [8]unsafe.Pointer
	plans [8]*typeplan.Plan
	next  int
}

// plan returns the plan of the type whose type word is word (non-nil),
// from the cache when it holds it.
func (c *planCache) plan(word unsafe.Pointer) *typeplan.Plan {
	for i := range c.words { // by index: ranging over the array would copy it
		if c.words[i] == word {
			return c.plans[i]
		}
	}
	return c.add(word)
}

// planOf is plan for a reflect.Type: the lookup of Capture and DiffLive,
// which hold dynamic types as reflect values.
func (c *planCache) planOf(t reflect.Type) *typeplan.Plan {
	return c.plan(typeWord(t))
}

// add compiles (or finds) the plan for word and caches it.
func (c *planCache) add(word unsafe.Pointer) *typeplan.Plan {
	p := typeplan.For(typeOfWord(word))
	c.words[c.next], c.plans[c.next] = word, p
	c.next = (c.next + 1) % len(c.words)
	return p
}

// eface is the layout of an empty interface: the dynamic type word, then
// the data word (the value itself for a Direct type, otherwise a pointer
// to it).
type eface struct {
	typ, data unsafe.Pointer
}

// itab is the head of the runtime's itab, the first word of an interface
// with methods: the interface type, then the dynamic type word.
type itab struct {
	inter, typ unsafe.Pointer
}

// typeWord returns t's type word. A reflect.Type is a *rtype whose
// address is the runtime type descriptor, the same pointer an interface
// holding a value of type t carries as its first word.
func typeWord(t reflect.Type) unsafe.Pointer {
	return (*eface)(unsafe.Pointer(&t)).data
}

// typeOfWord is the inverse of typeWord: reflect.TypeOf reads only the
// type word of the interface it is handed.
func typeOfWord(word unsafe.Pointer) reflect.Type {
	var v any
	(*eface)(unsafe.Pointer(&v)).typ = word
	return reflect.TypeOf(v)
}

// mapEntry pairs a map key with its canonical signature for sorting.
type mapEntry struct {
	sig string
	key reflect.Value
}

var walkPool = sync.Pool{New: func() any { return new(walker) }}

// getWalker returns a pooled walker with an empty alias table.
func getWalker() *walker {
	w := walkPool.Get().(*walker)
	w.refs.Reset()
	return w
}

// release drops what the walk referenced and returns the walker to the
// pool.
func (w *walker) release() {
	w.drop()
	walkPool.Put(w)
}

// drop clears what the walk referenced, keeping every buffer's capacity.
func (w *walker) drop() {
	clear(w.entries)
	w.entries = w.entries[:0]
	clear(w.stack)
	w.stack = w.stack[:0]
	w.mapDepth = 0
}

// pushEntries pushes the entries of map v, sorted by keySig (the
// canonical order every traversal visits them in), as a new run on the
// entries stack and returns the run; popEntries(base) drops it again.
// Nested maps push their own runs, so each sorts only its own entries.
func (w *walker) pushEntries(v reflect.Value) (base int, ents []mapEntry) {
	base = len(w.entries)
	for _, k := range v.MapKeys() {
		w.entries = append(w.entries, mapEntry{sig: keySig(k), key: k})
	}
	ents = w.entries[base:]
	sort.Slice(ents, func(i, j int) bool { return ents[i].sig < ents[j].sig })
	return base, ents
}

// popEntries drops the entry runs pushed since the stack was base long.
func (w *walker) popEntries(base int) {
	clear(w.entries[base:])
	w.entries = w.entries[:base]
}

// pushMapVal returns the addressable temp for a value of plan pl at the
// next map depth, reusing the one kept there when it has pl's type.
func (w *walker) pushMapVal(pl *typeplan.Plan) reflect.Value {
	d := w.mapDepth
	w.mapDepth++
	if d == len(w.mapVals) {
		w.mapVals = append(w.mapVals, reflect.Value{})
	}
	v := w.mapVals[d]
	if !v.IsValid() || v.Type() != pl.Type {
		v = reflect.New(pl.Type).Elem()
		w.mapVals[d] = v
	}
	return v
}

// popMapVal zeroes v, the temp pushMapVal returned last, so that it keeps
// no workload memory alive, and pops its depth.
func (w *walker) popMapVal(v reflect.Value) {
	v.SetZero()
	w.mapDepth--
}

// bytesOf returns the content of v, a byte slice or byte array: v.Bytes()
// where reflect allows it (an exported value, and for an array an
// addressable one), otherwise a copy in the walker's scratch, valid until
// the next call.
func (w *walker) bytesOf(v reflect.Value) []byte {
	if v.CanInterface() && (v.Kind() == reflect.Slice || v.CanAddr()) {
		return v.Bytes()
	}
	n := v.Len()
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	b := w.scratch[:n]
	for i := range b {
		b[i] = byte(v.Index(i).Uint())
	}
	return b
}
