package objgraph

import (
	"math/bits"
	"reflect"
	"sort"
	"sync"
)

// walker is the pooled state of one canonical traversal. Fingerprint,
// Capture and DiffLive each take one for the length of a call (Diff only
// for its node stack), so a warm traversal allocates none of its scratch.
type walker struct {
	// refs numbers the references the traversal meets (see refTable).
	refs refTable
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
	w.refs.reset()
	return w
}

// release drops what the walk referenced (keeping every buffer's capacity)
// and returns the walker to the pool.
func (w *walker) release() {
	clear(w.entries)
	w.entries = w.entries[:0]
	clear(w.stack)
	w.stack = w.stack[:0]
	walkPool.Put(w)
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

// refTable numbers references (pointers, maps, slices) in traversal
// order for aliasing detection: the first occurrence of a reference gets
// the next id, later ones find it. A key is the reference's address, the
// plan of its type and, for slices, its length: two slice headers over
// the same backing array with the same length are the same reference.
// Plan identity is type identity (see typePlans), so comparing plan
// pointers is comparing types without hashing them.
//
// It is an open-addressing table with linear probing, hashed on the
// address alone and matched on the full key. Emptying it bumps an epoch
// instead of clearing the slots; a slot of an earlier epoch reads as free.
type refTable struct {
	slots []refSlot
	// shift maps a 64-bit hash to a slot index (64 - log2(len(slots))).
	shift uint
	// epoch is the generation whose slots are live; never 0 once reset.
	epoch uint32
	// n is the number of live entries, which is also the last id given.
	n int
}

type refSlot struct {
	ptr   uintptr
	plan  *typePlan
	aux   int
	id    int32
	epoch uint32
}

// minRefSlots is the table size a first insert allocates.
const minRefSlots = 64

// reset empties the table in O(1).
func (t *refTable) reset() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 {
		// Wrapped: slots last written 2³² resets ago would read as live.
		clear(t.slots)
		t.epoch = 1
	}
}

// intern returns the id of the reference (ptr, plan, aux) and true when
// the table already holds it; otherwise it records the reference under
// the next id and returns that id and false.
func (t *refTable) intern(ptr uintptr, plan *typePlan, aux int) (int, bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(ptr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			t.n++
			*s = refSlot{ptr: ptr, plan: plan, aux: aux, id: int32(t.n), epoch: t.epoch}
			return t.n, false
		}
		if s.ptr == ptr && s.plan == plan && s.aux == aux {
			return int(s.id), true
		}
	}
}

// home is ptr's first probe slot: Fibonacci hashing, whose top bits mix
// in every address bit, alignment zeros included.
func (t *refTable) home(ptr uintptr) int {
	return int(uint64(ptr) * 0x9e3779b97f4a7c15 >> t.shift)
}

// grow doubles the table (keeping the load at most one half) and
// re-inserts the live entries.
func (t *refTable) grow() {
	old := t.slots
	size := max(2*len(old), minRefSlots)
	t.slots = make([]refSlot, size)
	t.shift = uint(64 - bits.Len(uint(size-1)))
	mask := size - 1
	for _, s := range old {
		if s.epoch != t.epoch {
			continue
		}
		i := t.home(s.ptr)
		for t.slots[i].epoch == t.epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
