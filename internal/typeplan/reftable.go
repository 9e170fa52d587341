package typeplan

import "math/bits"

// RefTable numbers references in traversal order for alias detection:
// the first occurrence of a reference gets the next id (1, 2, ...), later
// ones find it. A key is the reference's address, the plan of its type
// and, for slices, its length and capacity: two slice headers over the
// same backing array are the same reference only when both match. Plan
// identity is type identity (see For), so comparing plan pointers is
// comparing types without hashing them.
//
// The keys are kept densely in id order, the first smallRefs of them in
// an array inside the table, so a traversal that meets few references
// scans them and allocates nothing. Past that an open-addressing index
// with linear probing, hashed on the address alone, maps a key to its id;
// an index slot is 8 bytes, a fraction of a key. Emptying the table bumps
// an epoch instead of clearing the index; a slot of an earlier epoch reads
// as free. The zero RefTable is empty and ready to use. A RefTable must
// not be copied once used: its keys may point into its own array.
type RefTable struct {
	// keys holds every live key at index id-1; small is its first
	// backing array.
	keys  []refKey
	small [smallRefs]refKey
	// slots index keys once there are more than smallRefs of them.
	slots []refSlot
	// shift maps a 64-bit hash to a slot index (64 - log2(len(slots))).
	shift uint
	// epoch is the generation whose slots are live; never 0 once a slot
	// is written.
	epoch uint32
}

type refKey struct {
	ptr      uintptr
	plan     *Plan
	len, cap int
}

type refSlot struct {
	id, epoch uint32
}

const (
	// smallRefs is the number of keys scanned before the table indexes
	// them; most masked calls and small receivers meet fewer references.
	smallRefs = 8
	// minRefSlots is the index size a first spill allocates.
	minRefSlots = 64
)

// Reset empties the table in O(1).
func (t *RefTable) Reset() {
	t.keys = t.keys[:0]
	t.epoch++
	if t.epoch == 0 {
		// Wrapped: slots last written 2³² resets ago would read as live.
		clear(t.slots)
		t.epoch = 1
	}
}

// Intern returns the id of the reference (ptr, plan, length, capacity)
// and true when the table already holds it; otherwise it records the
// reference under the next id and returns that id and false. Pointers and
// maps pass length and capacity 0.
func (t *RefTable) Intern(ptr uintptr, plan *Plan, length, capacity int) (int, bool) {
	k := refKey{ptr: ptr, plan: plan, len: length, cap: capacity}
	n := len(t.keys)
	if n <= smallRefs {
		for i := range t.keys {
			if t.keys[i] == k {
				return i + 1, true
			}
		}
		if n < smallRefs {
			if t.keys == nil {
				t.keys = t.small[:0]
			}
			t.keys = append(t.keys, k)
			return n + 1, false
		}
		// The small keys are full: index them, then k.
		t.index(max(len(t.slots), minRefSlots))
	} else if 2*(n+1) > len(t.slots) {
		t.index(2 * len(t.slots))
	}
	mask := len(t.slots) - 1
	for i := t.home(ptr); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			t.keys = append(t.keys, k)
			*s = refSlot{id: uint32(n + 1), epoch: t.epoch}
			return n + 1, false
		}
		if t.keys[s.id-1] == k {
			return int(s.id), true
		}
	}
}

// home is ptr's first probe slot: Fibonacci hashing, whose top bits mix
// in every address bit, alignment zeros included.
func (t *RefTable) home(ptr uintptr) int {
	return int(uint64(ptr) * 0x9e3779b97f4a7c15 >> t.shift)
}

// index enters every key into slots of the given size, a power of two,
// reallocating them only to grow. An epoch writes slots only once its
// keys spill, so at a spill the old slots all read as free.
func (t *RefTable) index(size int) {
	if size > len(t.slots) {
		t.slots = make([]refSlot, size)
		t.shift = uint(64 - bits.Len(uint(size-1)))
		if t.epoch == 0 {
			t.epoch = 1 // a zero table: fresh slots must read as free
		}
	}
	mask := len(t.slots) - 1
	for id, k := range t.keys {
		i := t.home(k.ptr)
		for t.slots[i].epoch == t.epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = refSlot{id: uint32(id + 1), epoch: t.epoch}
	}
}
