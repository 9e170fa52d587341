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

// fingerprint is Fingerprint on w.
func (w *walker) fingerprint(roots []any) FP {
	e := fpEncoder{walker: w}
	e.h.reset()
	for i, r := range roots {
		v, pl := e.rootValue(r)
		e.encode(v, pl, rootLabelHash(i))
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

// encode mirrors walker.head case for case and visits children in
// encoder.encode's order; every payload head sets on a Node (Bits, Str,
// Ref/Backref, child counts via Bits) is folded into the hash in the same
// traversal position. pl is the plan of v's type.
//
// It streams each payload into the hash rather than taking head's Node:
// Fingerprint runs at every wrapped call, and filling a header first
// measured about 1.5× slower on a 64-item receiver (a generic sink shared
// with head, about 1.2× slower and one allocation per call).
func (e *fpEncoder) encode(v reflect.Value, pl *typeplan.Plan, labelKey uint64) {
	if !v.IsValid() {
		e.leaf(KindNil, emptyTypeHash, labelKey)
		return
	}
	switch pl.Kind {
	case reflect.Bool:
		e.leaf(KindBool, pl.TypeHash, labelKey)
		var bit uint64
		if v.Bool() {
			bit = 1
		}
		e.h.word(bit)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.leaf(KindInt, pl.TypeHash, labelKey)
		e.h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.leaf(KindUint, pl.TypeHash, labelKey)
		e.h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.leaf(KindFloat, pl.TypeHash, labelKey)
		e.h.word(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		// Capture compares complex values by their formatted string, which
		// collapses every NaN payload to "NaN"; canonicalizing NaN bits
		// reproduces those equivalence classes without the allocation.
		e.leaf(KindComplex, pl.TypeHash, labelKey)
		c := v.Complex()
		e.h.word(canonFloatBits(real(c)))
		e.h.word(canonFloatBits(imag(c)))
	case reflect.String:
		e.leaf(KindString, pl.TypeHash, labelKey)
		s := v.String()
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
	case reflect.Pointer:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(v.Pointer(), pl, 0, 0)
		e.leaf(KindPointer, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.encode(v.Elem(), pl.Elem, derefLabel)
	case reflect.Slice:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		n := v.Len()
		id, seen := e.refs.Intern(v.Pointer(), pl, n, 0)
		e.leaf(KindSlice, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.h.word(uint64(n))
		if pl.ByteElem {
			// Bulk fast path, mirroring Capture's one-payload encoding.
			// Capture stores the same Str for exported and unexported
			// byte slices, so both spell identically here too: unexported
			// slices copy through encoder scratch (Bytes() is forbidden)
			// and hash the same stream.
			b := e.bytesOf(v)
			if n >= fpLeafFrameMin {
				d := bulkHash128(b)
				e.h.word(d[0])
				e.h.word(d[1])
			} else {
				e.h.bytes(b)
			}
			return
		}
		for i := 0; i < n; i++ {
			e.encode(v.Index(i), pl.Elem, e.indexLabelHash(i))
		}
	case reflect.Array:
		e.leaf(KindArray, pl.TypeHash, labelKey)
		n := v.Len()
		e.h.word(uint64(n))
		if pl.ByteArray && n >= fpLeafFrameMin {
			// Large byte arrays frame like large byte slices. The framing
			// decision depends only on (type, len) — never addressability —
			// so capture-equal arrays hash equal whichever extraction path
			// runs.
			d := bulkHash128(e.bytesOf(v))
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		for i := 0; i < n; i++ {
			e.encode(v.Index(i), pl.Elem, e.indexLabelHash(i))
		}
	case reflect.Map:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(v.Pointer(), pl, 0, 0)
		e.leaf(KindMap, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.h.word(uint64(v.Len()))
		// Same canonical entry order as Capture. Map traversal allocates
		// (MapKeys, signature strings); maps are rare on the detect hot
		// path and the zero-alloc guarantee covers the struct/pointer/
		// slice shapes wrapped receivers actually have.
		base, ents := e.pushEntries(v)
		for _, ent := range ents {
			e.leaf(KindEntry, emptyTypeHash, typeplan.StrHash64(ent.sig))
			e.h.str(ent.sig)
			e.encode(v.MapIndex(ent.key), pl.Elem, valueLabel)
		}
		e.popEntries(base)
	case reflect.Struct:
		e.leaf(KindStruct, pl.TypeHash, labelKey)
		for _, f := range pl.Fields {
			e.encode(v.Field(f.Index), f.Plan, f.LabelHash)
		}
	case reflect.Interface:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindInterface, pl.TypeHash, labelKey)
		dyn := v.Elem()
		e.encode(dyn, e.dyn.plan(dyn.Type()), dynLabel)
	case reflect.Chan:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindChan, pl.TypeHash, labelKey)
		e.h.word(uint64(v.Pointer()))
	case reflect.Func:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindFunc, pl.TypeHash, labelKey)
		e.h.word(uint64(v.Pointer()))
	default:
		// Opaque: Capture's Str is a pure function of the reflect kind and
		// the addressability flag; hash those instead of the string.
		e.leaf(KindOpaque, pl.TypeHash, labelKey)
		if v.CanAddr() || pl.Kind == reflect.UnsafePointer {
			e.h.word(uint64(pl.Kind)<<1 | 1)
		} else {
			e.h.word(0)
		}
	}
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
