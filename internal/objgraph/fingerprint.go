package objgraph

import (
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"unsafe"

	"failatomic/internal/typeplan"
)

// Fingerprint-first snapshots. Capture materializes one *Node per value,
// yet in a detection campaign the before-graph is read back on at most one
// exceptional return per run — >99% of snapshots are built and thrown
// away. Fingerprint walks the *same canonical traversal* as Capture (same
// ref-id aliasing semantics, same keySig map-key ordering, same
// distinguishing payload per node) but folds it into a streaming 128-bit
// hash: zero Node allocations, pooled encoder scratch. Two values with
// equal fingerprints have, up to hash collisions (2⁻¹²⁸-class, see
// DESIGN.md §5.8), equal Capture graphs; unequal fingerprints imply
// unequal graphs exactly. Human-readable diffs come from Capture
// elsewhere: mostly from the before-states the clean run captures, the
// rest from a deterministic replay that captures only the calls still
// without one (see internal/core's SnapshotMode).
//
// Every root count takes the same single traversal: ids are shared
// across roots (exactly Capture's numbering) and each root is labelled by
// its position, so the equality contract below holds for any root count.

// FP is a 128-bit object-graph fingerprint. The zero value is not the
// fingerprint of any graph (the hash is seeded), so FP is comparable and
// usable as a map key.
type FP [2]uint64

// Fingerprint hashes the object graphs rooted at the given values. It is
// equality-compatible with Capture: for any a, b,
//
//	Equal(Capture(a...), Capture(b...))  ⇒  Fingerprint(a...) == Fingerprint(b...)
//
// exactly, and the converse holds up to hash collisions.
func Fingerprint(roots ...any) FP {
	w := getWalker()
	fp := w.fingerprint(roots)
	w.release()
	return fp
}

// fingerprint is Fingerprint on w. Each root is read off its interface
// words, so no root's address reaches the kernel.
func (w *walker) fingerprint(roots []any) FP {
	e := fpEncoder{walker: w}
	e.h.reset()
	for i := range roots {
		r := (*eface)(unsafe.Pointer(&roots[i]))
		if r.typ == nil {
			e.leaf(KindNil, emptyTypeHash, rootLabelHash(i))
			continue
		}
		e.encodeHeld(r.typ, r.data, rootLabelHash(i))
	}
	return e.h.sum()
}

// Precomputed hashes of the fixed edge labels Capture emits.
var (
	emptyTypeHash = typeplan.StrHash64("")
	derefLabel    = typeplan.StrHash64("*")
	dynLabel      = typeplan.StrHash64("dyn")
	valueLabel    = typeplan.StrHash64("value")
)

// fpEncoder is Fingerprint's traversal: the pooled walker (whose alias
// ids are exactly Capture's) plus the running hash.
type fpEncoder struct {
	*walker
	h fpHash
}

// leaf folds one node header into the hash: kind, type, edge label — the
// first three fields Diff compares.
func (e *fpEncoder) leaf(kind Kind, typeHash, labelKey uint64) {
	e.h.word(uint64(kind))
	e.h.word(typeHash)
	e.h.word(labelKey)
}

// ref folds a reference node's alias id and backref flag (Diff's aliasing
// check). Ids are traversal ordinals — Capture's numbering.
func (e *fpEncoder) ref(id int, backref bool) {
	x := uint64(id) << 1
	if backref {
		x |= 1
	}
	e.h.word(x)
}

// The kernel. encodeAt and encodeWord mirror walker.head case for case
// and visit children in encoder.encode's order; every payload head sets
// on a Node (Bits, Str, Ref/Backref, child counts via Bits) is folded
// into the hash in the same traversal position, so the hash is the one a
// reflect.Value walk of the same graph would fold. They read memory
// through the plans' compiled layout instead of reflect.Value: a struct
// field at its Offset, the i-th slice or array element at i element sizes
// past the first, an interface's value off its two words. Unexported
// fields read like exported ones, as Capture reads both.
//
// They stream each payload into the hash rather than taking head's Node:
// Fingerprint runs at every wrapped call, and filling a header first
// measured about 1.5× slower on a 64-item receiver (a generic sink shared
// with head, about 1.2× slower and one allocation per call).

// encodeHeld encodes the value an interface holds: typ is its dynamic
// type word (non-nil) and data its data word, the value itself for a
// Direct type and a pointer to it otherwise.
func (e *fpEncoder) encodeHeld(typ, data unsafe.Pointer, labelKey uint64) {
	pl := e.dyn.plan(typ)
	if pl.Direct {
		e.encodeWord(data, pl, labelKey)
		return
	}
	e.encodeAt(data, pl, labelKey)
}

// encodeAt encodes the value at p, whose plan is pl.
func (e *fpEncoder) encodeAt(p unsafe.Pointer, pl *typeplan.Plan, labelKey uint64) {
	switch pl.Kind {
	case reflect.Bool:
		e.leaf(KindBool, pl.TypeHash, labelKey)
		var bit uint64
		if *(*bool)(p) {
			bit = 1
		}
		e.h.word(bit)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.leaf(KindInt, pl.TypeHash, labelKey)
		e.h.word(uint64(loadInt(p, pl.Size)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.leaf(KindUint, pl.TypeHash, labelKey)
		e.h.word(loadUint(p, pl.Size))
	case reflect.Float32:
		e.leaf(KindFloat, pl.TypeHash, labelKey)
		e.h.word(math.Float64bits(float64(*(*float32)(p))))
	case reflect.Float64:
		e.leaf(KindFloat, pl.TypeHash, labelKey)
		e.h.word(math.Float64bits(*(*float64)(p)))
	case reflect.Complex64:
		e.complex(complex128(*(*complex64)(p)), pl, labelKey)
	case reflect.Complex128:
		e.complex(*(*complex128)(p), pl, labelKey)
	case reflect.String:
		e.leaf(KindString, pl.TypeHash, labelKey)
		s := *(*string)(p)
		if len(s) >= fpLeafFrameMin {
			// Large-leaf framing: fold the length, then the bulk content
			// digest. The framed/streamed choice is a pure function of
			// the length, so equal strings always take the same spelling.
			e.h.word(uint64(len(s)))
			d := bulkHash128String(s)
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		e.h.str(s)
	case reflect.Slice:
		sh := (*sliceHeader)(p)
		data, n := sh.data, sh.len
		if data == nil {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(uintptr(data), pl, n, 0)
		e.leaf(KindSlice, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.h.word(uint64(n))
		if pl.ByteElem {
			// Bulk fast path, mirroring Capture's one-payload encoding
			// (the same Str for exported and unexported byte slices).
			b := unsafe.Slice((*byte)(data), n)
			if n >= fpLeafFrameMin {
				d := bulkHash128(b)
				e.h.word(d[0])
				e.h.word(d[1])
			} else {
				e.h.bytes(b)
			}
			return
		}
		e.elems(data, n, pl.Elem)
	case reflect.Array:
		e.leaf(KindArray, pl.TypeHash, labelKey)
		n := pl.Len
		e.h.word(uint64(n))
		if pl.ByteArray && n >= fpLeafFrameMin {
			// Large byte arrays frame like large byte slices. The framing
			// decision depends only on (type, len), so capture-equal
			// arrays hash equal.
			d := bulkHash128(unsafe.Slice((*byte)(p), n))
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		e.elems(p, n, pl.Elem)
	case reflect.Struct:
		e.leaf(KindStruct, pl.TypeHash, labelKey)
		for i := range pl.Fields {
			f := &pl.Fields[i]
			e.encodeAt(unsafe.Add(p, f.Offset), f.Plan, f.LabelHash)
		}
	case reflect.Interface:
		i := (*eface)(p)
		typ, data := i.typ, i.data
		if typ == nil {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindInterface, pl.TypeHash, labelKey)
		if pl.Itab {
			typ = (*itab)(typ).typ
		}
		e.encodeHeld(typ, data, dynLabel)
	default:
		// Pointer, Map, Chan, Func, UnsafePointer: one word.
		e.encodeWord(*(*unsafe.Pointer)(p), pl, labelKey)
	}
}

// encodeWord encodes a value of a Direct type, whose one word is w: read
// out of memory by encodeAt, or the data word of an interface holding it.
func (e *fpEncoder) encodeWord(w unsafe.Pointer, pl *typeplan.Plan, labelKey uint64) {
	switch pl.Kind {
	case reflect.Pointer:
		if w == nil {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(uintptr(w), pl, 0, 0)
		e.leaf(KindPointer, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.encodeAt(w, pl.Elem, derefLabel)
	case reflect.Map:
		if w == nil {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(uintptr(w), pl, 0, 0)
		e.leaf(KindMap, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.entries(w, pl)
	case reflect.Chan:
		if w == nil {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindChan, pl.TypeHash, labelKey)
		e.h.word(uint64(uintptr(w)))
	case reflect.Func:
		if w == nil {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		// A func value points at its closure, whose first word is the
		// code pointer: reflect's Value.Pointer.
		e.leaf(KindFunc, pl.TypeHash, labelKey)
		e.h.word(uint64(uintptr(*(*unsafe.Pointer)(w))))
	case reflect.Struct:
		// One field, itself Direct, at offset 0.
		e.leaf(KindStruct, pl.TypeHash, labelKey)
		f := &pl.Fields[0]
		e.encodeWord(w, f.Plan, f.LabelHash)
	case reflect.Array:
		// One element, itself Direct.
		e.leaf(KindArray, pl.TypeHash, labelKey)
		e.h.word(1)
		e.encodeWord(w, pl.Elem, e.indexLabelHash(0))
	default:
		// UnsafePointer, nil or not: an opaque node whose Capture Str is
		// a pure function of the kind; hash that instead of the string.
		e.leaf(KindOpaque, pl.TypeHash, labelKey)
		e.h.word(uint64(pl.Kind)<<1 | 1)
	}
}

// loadInt reads the signed integer of size bytes at p, sign-extended as
// reflect's Value.Int reads it.
func loadInt(p unsafe.Pointer, size int) int64 {
	switch size {
	case 1:
		return int64(*(*int8)(p))
	case 2:
		return int64(*(*int16)(p))
	case 4:
		return int64(*(*int32)(p))
	}
	return *(*int64)(p)
}

// loadUint reads the unsigned integer of size bytes at p.
func loadUint(p unsafe.Pointer, size int) uint64 {
	switch size {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	}
	return *(*uint64)(p)
}

// complex folds a complex leaf. Capture compares complex values by their
// formatted string, which collapses every NaN payload to "NaN";
// canonicalizing NaN bits reproduces those equivalence classes without
// the allocation.
func (e *fpEncoder) complex(c complex128, pl *typeplan.Plan, labelKey uint64) {
	e.leaf(KindComplex, pl.TypeHash, labelKey)
	e.h.word(canonFloatBits(real(c)))
	e.h.word(canonFloatBits(imag(c)))
}

// elems encodes the n elements of plan elem laid out from data.
func (e *fpEncoder) elems(data unsafe.Pointer, n int, elem *typeplan.Plan) {
	for i := 0; i < n; i++ {
		e.encodeAt(unsafe.Add(data, uintptr(i)*uintptr(elem.Size)), elem, e.indexLabelHash(i))
	}
}

// entries encodes the entries of map m, of plan pl, in Capture's
// canonical order. Map traversal allocates (MapKeys, signature strings,
// value copies); maps are rare on the detect hot path and the zero-alloc
// guarantee covers the struct/pointer/slice shapes wrapped receivers
// actually have. Each value is copied into the walker's temp for this
// depth, so the kernel reads it through a pointer.
func (e *fpEncoder) entries(m unsafe.Pointer, pl *typeplan.Plan) {
	var held any
	*(*eface)(unsafe.Pointer(&held)) = eface{typeWord(pl.Type), m}
	v := reflect.ValueOf(held)
	e.h.word(uint64(v.Len()))
	tmp := e.pushMapVal(pl.Elem)
	p := tmp.Addr().UnsafePointer()
	base, ents := e.pushEntries(v)
	for _, ent := range ents {
		e.leaf(KindEntry, emptyTypeHash, typeplan.StrHash64(ent.sig))
		e.h.str(ent.sig)
		// A NaN key never equals itself, so its lookup finds nothing;
		// the entry folds a nil value, as Capture records it.
		mv := v.MapIndex(ent.key)
		if !mv.IsValid() {
			e.leaf(KindNil, emptyTypeHash, valueLabel)
			continue
		}
		tmp.Set(mv)
		e.encodeAt(p, pl.Elem, valueLabel)
	}
	e.popEntries(base)
	e.popMapVal(tmp)
}

// sliceHeader is the layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// canonFloatBits returns the IEEE bits of f with every NaN collapsed to
// one canonical pattern (matching strconv's uniform "NaN" rendering).
func canonFloatBits(f float64) uint64 {
	if math.IsNaN(f) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(f)
}

// fpHash is the streaming 128-bit mix: two 64-bit lanes, each word stirred
// through multiply-rotate rounds (xxhash-style), finalized with murmur
// avalanches. Not cryptographic — the threat model is accidental
// collision, argued at 2⁻¹²⁸-class odds in DESIGN.md §5.8.
type fpHash struct{ a, b uint64 }

const (
	fpSeedA = 0x9e3779b97f4a7c15
	fpSeedB = 0xc2b2ae3d27d4eb4f
	fpMulA  = 0x165667b19e3779f9
	fpMulB  = 0xff51afd7ed558ccd
)

func (h *fpHash) reset() { h.a, h.b = fpSeedA, fpSeedB }

// word folds one 64-bit word into both lanes.
func (h *fpHash) word(x uint64) {
	x *= fpSeedB
	x = bits.RotateLeft64(x, 31)
	x *= fpSeedA
	h.a = bits.RotateLeft64(h.a^x, 27)*fpMulA + fpSeedB
	h.b = (bits.RotateLeft64(h.b, 33) ^ x) * fpMulB
}

// str folds a length-prefixed string without converting or copying it.
func (h *fpHash) str(s string) {
	h.word(uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h.word(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
	}
	if i < len(s) {
		var tail uint64
		for j := 0; i < len(s); i, j = i+1, j+8 {
			tail |= uint64(s[i]) << j
		}
		h.word(tail)
	}
}

// bytes folds a length-prefixed byte slice.
func (h *fpHash) bytes(p []byte) {
	h.word(uint64(len(p)))
	i := 0
	for ; i+8 <= len(p); i += 8 {
		h.word(uint64(p[i]) | uint64(p[i+1])<<8 | uint64(p[i+2])<<16 | uint64(p[i+3])<<24 |
			uint64(p[i+4])<<32 | uint64(p[i+5])<<40 | uint64(p[i+6])<<48 | uint64(p[i+7])<<56)
	}
	if i < len(p) {
		var tail uint64
		for j := 0; i < len(p); i, j = i+1, j+8 {
			tail |= uint64(p[i]) << j
		}
		h.word(tail)
	}
}

// sum finalizes both lanes into the fingerprint.
func (h *fpHash) sum() FP {
	return FP{typeplan.Fmix64(h.a ^ bits.RotateLeft64(h.b, 17)), typeplan.Fmix64(h.b + h.a*fpMulA)}
}

// fpLeafFrameMin is the flat-leaf size (bytes) at which content is framed
// as one bulkHash128 digest instead of streamed word by word. The framing
// decision is a pure function of the length, so equal leaves always take
// the same spelling.
const fpLeafFrameMin = 1024

// bulkHash128 digests a large flat payload with four independent
// accumulator lanes, 32 bytes per round — built for memory-bandwidth
// throughput where the word-by-word streaming mix (two dependent
// multiplies per 8 bytes) runs out of ILP. Same non-cryptographic
// collision stance as fpHash. The length is folded into the lane seeds,
// so payloads of different lengths never share a tail encoding.
func bulkHash128(p []byte) FP {
	n := uint64(len(p))
	a0 := fpSeedA ^ n*fpMulA
	a1 := fpSeedB + bits.RotateLeft64(n, 23)
	a2 := fpMulA ^ bits.RotateLeft64(n, 43)
	a3 := fpMulB + n*fpSeedB
	for len(p) >= 32 {
		a0 = bits.RotateLeft64(a0^(binary.LittleEndian.Uint64(p)*fpBulkM1), 29) * fpBulkM2
		a1 = bits.RotateLeft64(a1^(binary.LittleEndian.Uint64(p[8:])*fpBulkM2), 31) * fpBulkM1
		a2 = bits.RotateLeft64(a2^(binary.LittleEndian.Uint64(p[16:])*fpBulkM1), 33) * fpBulkM2
		a3 = bits.RotateLeft64(a3^(binary.LittleEndian.Uint64(p[24:])*fpBulkM2), 37) * fpBulkM1
		p = p[32:]
	}
	for len(p) >= 8 {
		a0, a1, a2, a3 = a1, a2, a3, bits.RotateLeft64(a0^(binary.LittleEndian.Uint64(p)*fpBulkM1), 27)*fpBulkM2
		p = p[8:]
	}
	if len(p) > 0 {
		var tail uint64
		for i := len(p) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(p[i])
		}
		a0 = bits.RotateLeft64(a0^(tail*fpBulkM1), 25) * fpBulkM2
	}
	h0 := typeplan.Fmix64(a0 ^ bits.RotateLeft64(a1, 13) ^ bits.RotateLeft64(a2, 29) ^ bits.RotateLeft64(a3, 47))
	h1 := typeplan.Fmix64((a1 + a0*fpMulA) ^ (bits.RotateLeft64(a3, 17) + a2*fpMulB))
	return FP{h0, h1}
}

const (
	fpBulkM1 = 0x87c37b91114253d5
	fpBulkM2 = 0x4cf5ad432745937f
)

// bulkHash128String is bulkHash128 over a string's bytes without copying.
func bulkHash128String(s string) FP {
	if len(s) == 0 {
		return bulkHash128(nil)
	}
	return bulkHash128(unsafe.Slice(unsafe.StringData(s), len(s)))
}
