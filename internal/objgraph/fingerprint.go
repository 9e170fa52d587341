package objgraph

import (
	"math"
	"math/bits"
	"reflect"
	"sort"
	"sync"
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
// unequal graphs exactly. The campaign driver exploits determinism to
// recover human-readable diffs: runs whose fingerprints differ are
// re-executed once, with Capture snapshots at just the differing calls.
//
// A single root — the wrapped receiver, the shape almost every call
// has — hashes into an isolated frame digest folded under a fixed root
// label, which is what lets FPCache reuse the whole frame while its
// generation is unchanged. Several roots (receiver plus by-reference
// arguments) take one global traversal with ids shared across roots,
// exactly Capture's numbering, distinguished from the framed spelling by
// a marker word. The path is a pure function of the root count, so
// capture-equal graphs always take the same path and the equality
// contract below holds on both.

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
	return fingerprintRoots(nil, roots)
}

// FingerprintCached is Fingerprint backed by a session-owned incremental
// cache: large flat leaves replay memoized content digests after an exact
// verification compare, and single pointer roots whose cache generation
// is unchanged reuse their whole-frame digest without traversal. The
// result is always identical to Fingerprint(roots...); the cache only
// changes how fast it is computed. c may be nil (plain Fingerprint).
//
// The cache is not safe for concurrent use — one FPCache per session.
func FingerprintCached(c *FPCache, roots ...any) FP {
	return fingerprintRoots(c, roots)
}

func fingerprintRoots(c *FPCache, roots []any) FP {
	if len(roots) == 1 {
		return fingerprintFramed(c, roots[0])
	}
	return fingerprintGlobal(c, roots)
}

// fingerprintFramed hashes a single root as one frame folded under the
// first root label.
func fingerprintFramed(c *FPCache, root any) FP {
	e := fpPool.Get().(*fpEncoder)
	e.cache = c
	var top fpHash
	top.reset()
	top.word(rootLabelHash(0))
	d := e.rootDigest(root)
	top.word(d[0])
	top.word(d[1])
	e.release()
	return top.sum()
}

// fingerprintGlobal hashes several roots in one traversal with ids shared
// across roots (exactly the Capture numbering), distinguished from the
// framed encoding by a marker word.
func fingerprintGlobal(c *FPCache, roots []any) FP {
	e := fpPool.Get().(*fpEncoder)
	e.cache = c
	e.h.reset()
	e.h.word(fpAliasMark)
	for i, r := range roots {
		if r == nil {
			e.leaf(KindNil, emptyTypeHash, rootLabelHash(i))
			continue
		}
		v := reflect.ValueOf(r)
		e.encode(v, planFor(v.Type()), rootLabelHash(i))
	}
	fp := e.h.sum()
	e.release()
	return fp
}

// rootDigest returns the frame digest of a single root, reusing the
// cache's generation-keyed entry for a pointer root when one is valid.
func (e *fpEncoder) rootDigest(root any) FP {
	if root == nil {
		e.h.reset()
		e.leaf(KindNil, emptyTypeHash, frameRootLabel)
		return e.h.sum()
	}
	v := reflect.ValueOf(root)
	pl := planFor(v.Type())
	c := e.cache
	if c == nil || pl.kind != reflect.Pointer || v.IsNil() {
		return e.frame(v, pl)
	}
	key := fpRootKey{ptr: v.Pointer(), plan: pl}
	gen := c.gen.Load()
	if ent, hit := c.roots[key]; hit && ent.gen == gen {
		c.hits++
		return ent.d
	}
	c.misses++
	d := e.frame(v, pl)
	c.roots[key] = fpRootEntry{gen: gen, d: d}
	return d
}

// frame hashes v into an isolated digest: a fresh hash state and a fixed
// root label, so the digest depends only on the subgraph, not on where
// the root sits.
func (e *fpEncoder) frame(v reflect.Value, pl *typePlan) FP {
	e.h.reset()
	e.encode(v, pl, frameRootLabel)
	return e.h.sum()
}

// Precomputed hashes of the fixed edge labels Capture emits, plus the
// framing marks of the two root spellings.
var (
	emptyTypeHash  = strHash64("")
	derefLabel     = strHash64("*")
	dynLabel       = strHash64("dyn")
	valueLabel     = strHash64("value")
	frameRootLabel = strHash64("fp:frame")
	fpAliasMark    = strHash64("fp:aliased-roots")
)

// fpEncoder is the pooled traversal state: the aliasing map (refKey →
// traversal-ordinal id, exactly Capture's), the running hash, sort
// scratch for map entries, and the cache of the current call.
type fpEncoder struct {
	h       fpHash
	refs    map[refKey]int
	next    int
	entries []fpMapEntry
	// cache is the session cache of the current call, or nil.
	cache *FPCache
	// scratch is reused for byte extraction from unexported slices and
	// unaddressable arrays.
	scratch []byte
}

// fpMapEntry pairs a map key with its canonical signature for sorting.
type fpMapEntry struct {
	sig string
	key reflect.Value
}

var fpPool = sync.Pool{New: func() any {
	return &fpEncoder{refs: make(map[refKey]int, 64)}
}}

// release clears the aliasing state (keeping the map's buckets and the
// entries slice for reuse) and returns the encoder to the pool.
func (e *fpEncoder) release() {
	clear(e.refs)
	e.next = 0
	e.entries = e.entries[:0]
	e.cache = nil
	fpPool.Put(e)
}

// byteScratch returns an n-byte scratch buffer owned by the encoder.
func (e *fpEncoder) byteScratch(n int) []byte {
	if cap(e.scratch) < n {
		e.scratch = make([]byte, n)
	}
	return e.scratch[:n]
}

// leafDigest returns the content digest of one large flat leaf, memoized
// through the cache when the bytes are the leaf's real backing store
// (scratch copies have no stable identity to key on).
func (e *fpEncoder) leafDigest(b []byte, stable bool) FP {
	if e.cache != nil && stable {
		return e.cache.leafBytes(b)
	}
	return bulkHash128(b)
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

// encode mirrors encoder.encode case for case; every payload Capture
// stores on a Node (Bits, Str, Ref/Backref, child counts via Bits) is
// folded into the hash in the same traversal position. pl is the plan of
// v's type.
func (e *fpEncoder) encode(v reflect.Value, pl *typePlan, labelKey uint64) {
	if !v.IsValid() {
		e.leaf(KindNil, emptyTypeHash, labelKey)
		return
	}
	switch pl.kind {
	case reflect.Bool:
		e.leaf(KindBool, pl.typeHash, labelKey)
		var bit uint64
		if v.Bool() {
			bit = 1
		}
		e.h.word(bit)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.leaf(KindInt, pl.typeHash, labelKey)
		e.h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.leaf(KindUint, pl.typeHash, labelKey)
		e.h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.leaf(KindFloat, pl.typeHash, labelKey)
		e.h.word(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		// Capture compares complex values by their formatted string, which
		// collapses every NaN payload to "NaN"; canonicalizing NaN bits
		// reproduces those equivalence classes without the allocation.
		e.leaf(KindComplex, pl.typeHash, labelKey)
		c := v.Complex()
		e.h.word(canonFloatBits(real(c)))
		e.h.word(canonFloatBits(imag(c)))
	case reflect.String:
		e.leaf(KindString, pl.typeHash, labelKey)
		s := v.String()
		if len(s) >= fpLeafFrameMin {
			// Large-leaf framing: fold the length, then the memoizable
			// content digest. The framed/streamed choice is a pure
			// function of the length, so equal strings always take the
			// same spelling.
			e.h.word(uint64(len(s)))
			var d FP
			if e.cache != nil {
				d = e.cache.leafString(s)
			} else {
				d = bulkHash128String(s)
			}
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		e.h.str(s)
	case reflect.Pointer:
		if v.IsNil() {
			e.leaf(KindNil, pl.typeHash, labelKey)
			return
		}
		key := refKey{ptr: v.Pointer(), typ: v.Type()}
		if id, ok := e.refs[key]; ok {
			e.leaf(KindPointer, pl.typeHash, labelKey)
			e.ref(id, true)
			return
		}
		e.next++
		e.refs[key] = e.next
		e.leaf(KindPointer, pl.typeHash, labelKey)
		e.ref(e.next, false)
		e.encode(v.Elem(), pl.elem, derefLabel)
	case reflect.Slice:
		if v.IsNil() {
			e.leaf(KindNil, pl.typeHash, labelKey)
			return
		}
		key := refKey{ptr: v.Pointer(), typ: v.Type(), aux: v.Len()}
		if id, ok := e.refs[key]; ok {
			e.leaf(KindSlice, pl.typeHash, labelKey)
			e.ref(id, true)
			return
		}
		e.next++
		e.refs[key] = e.next
		e.leaf(KindSlice, pl.typeHash, labelKey)
		e.ref(e.next, false)
		n := v.Len()
		e.h.word(uint64(n))
		if pl.byteElem {
			// Bulk fast path, mirroring Capture's one-payload encoding.
			// Capture stores the same Str for exported and unexported
			// byte slices, so both spell identically here too: unexported
			// slices copy through encoder scratch (Bytes() is forbidden)
			// and hash the same stream.
			var b []byte
			stable := v.CanInterface()
			if stable {
				b = v.Bytes()
			} else {
				b = e.byteScratch(n)
				for i := 0; i < n; i++ {
					b[i] = byte(v.Index(i).Uint())
				}
			}
			if n >= fpLeafFrameMin {
				d := e.leafDigest(b, stable)
				e.h.word(d[0])
				e.h.word(d[1])
			} else {
				e.h.bytes(b)
			}
			return
		}
		for i := 0; i < n; i++ {
			e.encode(v.Index(i), pl.elem, indexLabelHash(i))
		}
	case reflect.Array:
		e.leaf(KindArray, pl.typeHash, labelKey)
		n := v.Len()
		e.h.word(uint64(n))
		if pl.byteArray && n >= fpLeafFrameMin {
			// Large byte arrays frame like large byte slices. The framing
			// decision depends only on (type, len) — never addressability —
			// so capture-equal arrays hash equal whichever extraction path
			// runs; only cache eligibility differs.
			var d FP
			if v.CanAddr() && v.CanInterface() {
				d = e.leafDigest(v.Bytes(), true)
			} else {
				b := e.byteScratch(n)
				for i := 0; i < n; i++ {
					b[i] = byte(v.Index(i).Uint())
				}
				d = bulkHash128(b)
			}
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		for i := 0; i < n; i++ {
			e.encode(v.Index(i), pl.elem, indexLabelHash(i))
		}
	case reflect.Map:
		if v.IsNil() {
			e.leaf(KindNil, pl.typeHash, labelKey)
			return
		}
		key := refKey{ptr: v.Pointer(), typ: v.Type()}
		if id, ok := e.refs[key]; ok {
			e.leaf(KindMap, pl.typeHash, labelKey)
			e.ref(id, true)
			return
		}
		e.next++
		e.refs[key] = e.next
		e.leaf(KindMap, pl.typeHash, labelKey)
		e.ref(e.next, false)
		e.h.word(uint64(v.Len()))
		// Same canonical entry order as Capture: sort by keySig. Map
		// traversal allocates (MapKeys, signature strings); maps are rare
		// on the detect hot path and the zero-alloc guarantee covers the
		// struct/pointer/slice shapes wrapped receivers actually have.
		base := len(e.entries)
		for _, k := range v.MapKeys() {
			e.entries = append(e.entries, fpMapEntry{sig: keySig(k), key: k})
		}
		ents := e.entries[base:]
		sort.Slice(ents, func(i, j int) bool { return ents[i].sig < ents[j].sig })
		for _, ent := range ents {
			e.leaf(KindEntry, emptyTypeHash, strHash64(ent.sig))
			e.h.str(ent.sig)
			e.encode(v.MapIndex(ent.key), pl.elem, valueLabel)
		}
		// Pop this map's scratch so sibling maps (and the nested maps a
		// value traversal may push) each sort only their own entries.
		clear(e.entries[base:])
		e.entries = e.entries[:base]
	case reflect.Struct:
		e.leaf(KindStruct, pl.typeHash, labelKey)
		for _, f := range pl.fields {
			e.encode(v.Field(f.index), f.plan, f.labelHash)
		}
	case reflect.Interface:
		if v.IsNil() {
			e.leaf(KindNil, pl.typeHash, labelKey)
			return
		}
		e.leaf(KindInterface, pl.typeHash, labelKey)
		dyn := v.Elem()
		e.encode(dyn, planFor(dyn.Type()), dynLabel)
	case reflect.Chan:
		if v.IsNil() {
			e.leaf(KindNil, pl.typeHash, labelKey)
			return
		}
		e.leaf(KindChan, pl.typeHash, labelKey)
		e.h.word(uint64(v.Pointer()))
	case reflect.Func:
		if v.IsNil() {
			e.leaf(KindNil, pl.typeHash, labelKey)
			return
		}
		e.leaf(KindFunc, pl.typeHash, labelKey)
		e.h.word(uint64(v.Pointer()))
	default:
		// Opaque: Capture's Str is a pure function of the reflect kind and
		// the addressability flag; hash those instead of the string.
		e.leaf(KindOpaque, pl.typeHash, labelKey)
		if v.CanAddr() || pl.kind == reflect.UnsafePointer {
			e.h.word(uint64(pl.kind)<<1 | 1)
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
	return FP{fmix64(h.a ^ bits.RotateLeft64(h.b, 17)), fmix64(h.b + h.a*fpMulA)}
}
