package objgraph

import (
	"reflect"
	"sort"
	"sync"

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
}

// planCache is a small inline cache in front of typeplan.For for the
// dynamic types of interface-held values: the receivers a session
// snapshots and the elements of a container of Items come in a handful of
// types, so a few entries, replaced round-robin, hit on nearly every
// lookup without the global map's load. (On the campaign-heavy apps four
// entries thrash on five alternating types; eight miss about 0.3% of
// lookups.) Plans are immutable and never dropped, so entries stay valid
// across walks.
type planCache struct {
	types [8]reflect.Type
	plans [8]*typeplan.Plan
	next  int
}

// plan returns typeplan.For(t), from the cache when it holds t.
func (c *planCache) plan(t reflect.Type) *typeplan.Plan {
	for i := range c.types { // by index: ranging over the array would copy it
		if c.types[i] == t {
			return c.plans[i]
		}
	}
	p := typeplan.For(t)
	c.types[c.next], c.plans[c.next] = t, p
	c.next = (c.next + 1) % len(c.types)
	return p
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
