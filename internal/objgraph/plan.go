package objgraph

import (
	"reflect"
	"strconv"
	"sync"
)

// Compiled per-type encoding plans. Both Capture and Fingerprint walk the
// same canonical traversal, and both used to re-derive the same per-type
// facts on every node: the kind dispatch, the type string (reflect builds
// it on each call), struct field names (reflect.Type.Field allocates a
// fresh Index slice per call), and scalar sizes. A typePlan computes all
// of that once per reflect.Type, and links the plans of the types its
// values statically reach (struct fields; pointer, slice, array and map
// elements), so both encoders hand each child its plan directly. The
// package-level map is consulted only at roots and at interface dynamic
// values, whose types are known only at run time.

// typePlan is the compiled encoding recipe for one reflect.Type.
type typePlan struct {
	// kind is the reflect kind driving the encoder dispatch.
	kind reflect.Kind
	// typeStr is the interned Type.String() — the Node.Type of every node
	// of this type, shared instead of rebuilt per node.
	typeStr string
	// typeHash is strHash64(typeStr), mixed into fingerprints in place of
	// the string bytes.
	typeHash uint64
	// size is Type.Size(), used for scalar payload accounting.
	size int
	// fields holds the precomputed field traversal for structs.
	fields []fieldPlan
	// elem is the plan of the pointee (Pointer), element (Slice, Array) or
	// value (Map) type; nil for every other kind.
	elem *typePlan
	// byteElem marks []byte-shaped slices (bulk payload fast path).
	byteElem bool
	// byteArray marks [N]byte-shaped arrays (large-leaf framing path).
	byteArray bool
}

// fieldPlan is one struct field of a compiled plan.
type fieldPlan struct {
	// index is the field's positional index (Value.Field argument).
	index int
	// name is the interned field name — the edge label in Capture.
	name string
	// labelHash is strHash64(name), the edge label in Fingerprint.
	labelHash uint64
	// plan is the compiled plan of the field's type.
	plan *typePlan
}

// typePlans caches *typePlan by reflect.Type. Types are process-immutable,
// so entries are never invalidated; the map only grows, bounded by the
// number of distinct types the program snapshots. Every type has exactly
// one plan, so planFor(t) is also the plan any parent links for t: plan
// identity is a type identity.
var typePlans sync.Map

// compileMu serializes compilation, so a type is compiled once and the
// plans a compilation links are the ones planFor publishes.
var compileMu sync.Mutex

// planFor returns the compiled plan for t, compiling and caching it (with
// every plan it links) on first sight. Safe for concurrent use: the hit
// path is one lock-free map read, and plans are published only once their
// links are complete.
func planFor(t reflect.Type) *typePlan {
	if p, ok := typePlans.Load(t); ok {
		return p.(*typePlan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	pending := make(map[reflect.Type]*typePlan)
	p := compilePlan(t, pending)
	for typ, compiled := range pending {
		typePlans.Store(typ, compiled)
	}
	return p
}

// compilePlan derives the plan for t and, recursively, the plans it links.
// pending holds this compilation's unpublished plans; registering a plan
// there before resolving its children closes the cycles of recursive and
// mutually recursive types. Called with compileMu held.
func compilePlan(t reflect.Type, pending map[reflect.Type]*typePlan) *typePlan {
	if p, ok := typePlans.Load(t); ok {
		return p.(*typePlan)
	}
	if p := pending[t]; p != nil {
		return p
	}
	p := &typePlan{
		kind:    t.Kind(),
		typeStr: t.String(),
		size:    int(t.Size()),
	}
	p.typeHash = strHash64(p.typeStr)
	pending[t] = p
	switch p.kind {
	case reflect.Struct:
		p.fields = make([]fieldPlan, t.NumField())
		for i := range p.fields {
			f := t.Field(i)
			p.fields[i] = fieldPlan{index: i, name: f.Name, labelHash: strHash64(f.Name), plan: compilePlan(f.Type, pending)}
		}
	case reflect.Slice:
		p.byteElem = t.Elem().Kind() == reflect.Uint8
		p.elem = compilePlan(t.Elem(), pending)
	case reflect.Array:
		p.byteArray = t.Elem().Kind() == reflect.Uint8
		p.elem = compilePlan(t.Elem(), pending)
	case reflect.Pointer, reflect.Map:
		p.elem = compilePlan(t.Elem(), pending)
	}
	return p
}

// Interned edge labels. Capture used to build "arg1"/"[3]" strings on
// every root and element node; the common low indices are precomputed
// once and shared.

const nInternedLabels = 128

var (
	internedIndexLabels [nInternedLabels]string // "[0]", "[1]", ...
	internedArgLabels   [nInternedLabels]string // "recv", "arg1", ...
	internedIndexHashes [nInternedLabels]uint64
	internedArgHashes   [nInternedLabels]uint64
)

func init() {
	internedArgLabels[0] = "recv"
	for i := range internedIndexLabels {
		internedIndexLabels[i] = "[" + strconv.Itoa(i) + "]"
		internedIndexHashes[i] = strHash64(internedIndexLabels[i])
		if i > 0 {
			internedArgLabels[i] = "arg" + strconv.Itoa(i)
		}
		internedArgHashes[i] = strHash64(internedArgLabels[i])
	}
}

// indexLabel returns the "[i]" edge label, interned for small indices.
func indexLabel(i int) string {
	if i < nInternedLabels {
		return internedIndexLabels[i]
	}
	return "[" + strconv.Itoa(i) + "]"
}

// rootLabel returns the label of root i ("recv", then "argN"), interned
// for small indices.
func rootLabel(i int) string {
	if i < nInternedLabels {
		return internedArgLabels[i]
	}
	return "arg" + strconv.Itoa(i)
}

// indexLabelHash returns strHash64 of indexLabel(i) without building the
// string for interned indices.
func indexLabelHash(i int) uint64 {
	if i < nInternedLabels {
		return internedIndexHashes[i]
	}
	return strHash64(indexLabel(i))
}

// rootLabelHash returns strHash64 of rootLabel(i).
func rootLabelHash(i int) uint64 {
	if i < nInternedLabels {
		return internedArgHashes[i]
	}
	return strHash64(rootLabel(i))
}

// strHash64 hashes a label or type string to the 64-bit word mixed into
// fingerprints in its place. FNV-1a with a murmur-style finalizer: cheap
// at plan-compile time, and two distinct strings colliding only weakens
// the fingerprint toward its documented 2⁻¹²⁸-class collision caveat.
func strHash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return fmix64(h ^ uint64(len(s))<<56)
}

// fmix64 is the 64-bit avalanche finalizer (MurmurHash3 constants).
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
