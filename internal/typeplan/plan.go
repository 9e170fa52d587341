// Package typeplan compiles the per-type description both object-graph
// engines run from, and numbers the references they meet.
//
// The paper derives detection and masking from one per-class description:
// the object-graph snapshot and compare of Definition 1 (Listing 1) and
// the generated deep_copy/replace pair of Listing 2 (§6.2). A Plan is that
// description for one reflect.Type, compiled once: the kind dispatch, the
// type string and its hash (reflect builds the string on each call), every
// struct field (reflect.Type.Field allocates a fresh Index slice per
// call), whether values hold references at all, and whether a pointer type
// is a Snapshotter, plus the memory layout a traversal reads through
// unsafe pointers: each field's offset, an array's length, and whether an
// interface holds the value itself in its data word. A plan links the plans of the types its values
// statically reach (struct fields; pointer, slice, array and map elements;
// map keys), so a traversal hands each child its plan directly and looks
// one up only at roots and at interface dynamic values. objgraph's
// Capture, Fingerprint and DiffLive and checkpoint's Capture and Restore
// all read the same plans.
//
// RefTable numbers references (pointers, maps, slices) in first-sight
// order: objgraph's alias ids and checkpoint's clone memo.
package typeplan

import (
	"reflect"
	"sync"
)

// Snapshotter lets a type with unexported or external state participate in
// checkpointing. CheckpointState returns a deep copy of the internal state;
// RestoreState reinstates a previously returned state.
type Snapshotter interface {
	CheckpointState() any
	RestoreState(state any)
}

var snapshotterType = reflect.TypeOf((*Snapshotter)(nil)).Elem()

// Plan is the compiled description of one reflect.Type.
type Plan struct {
	Type reflect.Type
	Kind reflect.Kind
	// TypeStr is the interned Type.String(), and TypeHash its StrHash64.
	TypeStr  string
	TypeHash uint64
	// Size is Type.Size().
	Size int
	// Len is an array's length (0 for every other kind).
	Len int
	// Fields are a struct's fields in declaration order, exported or not.
	Fields []Field
	// Elem is the plan of the pointee (Pointer), element (Slice, Array) or
	// value (Map) type; Key is a map's key plan. Both are nil for every
	// other kind.
	Elem, Key *Plan
	// ByteElem marks []byte-shaped slices, ByteArray [N]byte-shaped arrays.
	ByteElem, ByteArray bool
	// Flat marks values holding no references and no strings (scalars,
	// and structs and arrays of them without unexported state): a deep
	// copy is one assignment and covers FlatBytes payload bytes. Padding
	// is not payload.
	Flat      bool
	FlatBytes int
	// Leaf marks values deep-copied by assignment: flat values, strings
	// (immutable), and channels and funcs (external resources, kept by
	// reference as the paper excludes external side effects, §4.4).
	Leaf bool
	// Empty marks zero-size types.
	Empty bool
	// Snap marks pointer types implementing Snapshotter.
	Snap bool
	// Direct marks the pointer-shaped types an interface stores in its
	// data word itself rather than behind a pointer to a copy: pointers,
	// maps, channels, funcs and unsafe.Pointers, and structs of one field
	// and arrays of one element of such a type (the compiler's rule;
	// pointers to runtime-internal not-in-heap types, which no program
	// type reaches, are the exception).
	Direct bool
	// Itab marks interface types with methods: the first word of such an
	// interface value points at an itab, whose second word is the
	// dynamic type, where an empty interface holds the dynamic type
	// itself.
	Itab bool
	// Bulk marks slices whose elements copy with one reflect.Copy (flat
	// or string elements), each covering ElemBytes payload bytes.
	Bulk      bool
	ElemBytes int
}

// Field is one struct field of a compiled plan.
type Field struct {
	// Index is the field's positional index (Value.Field argument), and
	// Offset its byte offset within the struct.
	Index  int
	Offset uintptr
	// Name is the field name, and LabelHash its StrHash64.
	Name      string
	LabelHash uint64
	Exported  bool
	Plan      *Plan
}

// plans caches *Plan by reflect.Type. Types are process-immutable, so
// entries are never invalidated; the map only grows, bounded by the number
// of distinct types the program snapshots. Every type has exactly one
// plan, so For(t) is also the plan any parent links for t: plan identity
// is a type identity.
var plans sync.Map

// compileMu serializes compilation, so a type is compiled once and the
// plans a compilation links are the ones For publishes.
var compileMu sync.Mutex

// For returns the compiled plan for t, compiling and caching it (with
// every plan it links) on first sight. Safe for concurrent use: the hit
// path is one lock-free map read, and plans are published only once their
// links are complete.
func For(t reflect.Type) *Plan {
	if p, ok := plans.Load(t); ok {
		return p.(*Plan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	pending := make(map[reflect.Type]*Plan)
	p := compile(t, pending)
	for typ, compiled := range pending {
		plans.Store(typ, compiled)
	}
	return p
}

// compile derives the plan for t and, recursively, the plans it links.
// pending holds this compilation's unpublished plans; registering a plan
// there before resolving its children closes the cycles of recursive and
// mutually recursive types. Called with compileMu held.
//
// Flat and its dependents are set after the children, so they read
// finished child plans, with one exception: a plan still being compiled,
// reached again through a cycle, reads as not flat. A type reaches itself
// only through a reference, which it holds by value or through an earlier
// reference, so that is its true value unless the reference sits in a
// zero-size field; there the error is only a slower element-wise copy.
func compile(t reflect.Type, pending map[reflect.Type]*Plan) *Plan {
	if p, ok := plans.Load(t); ok {
		return p.(*Plan)
	}
	if p := pending[t]; p != nil {
		return p
	}
	p := &Plan{Type: t, Kind: t.Kind(), TypeStr: t.String(), Size: int(t.Size())}
	p.TypeHash = StrHash64(p.TypeStr)
	p.Empty = p.Size == 0
	switch p.Kind {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		// Set before the children compile: type S struct{ next *S }
		// compiles S while *S is still pending and reads its Direct.
		p.Direct = true
	}
	pending[t] = p
	switch p.Kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		p.Flat, p.FlatBytes = true, p.Size
	case reflect.Struct:
		p.Fields = make([]Field, t.NumField())
		flat := true
		for i := range p.Fields {
			f := t.Field(i)
			fp := compile(f.Type, pending)
			p.Fields[i] = Field{Index: i, Offset: f.Offset, Name: f.Name, LabelHash: StrHash64(f.Name), Exported: f.IsExported(), Plan: fp}
			// A zero-size unexported field holds no state; any other
			// makes the struct uncheckpointable, so not flat.
			if f.IsExported() || !fp.Empty {
				flat = flat && f.IsExported() && fp.Flat
				p.FlatBytes += fp.FlatBytes
			}
		}
		p.Flat = flat
		p.Direct = len(p.Fields) == 1 && p.Fields[0].Plan.Direct
	case reflect.Array:
		p.ByteArray = t.Elem().Kind() == reflect.Uint8
		p.Elem = compile(t.Elem(), pending)
		p.Len = t.Len()
		p.Flat, p.FlatBytes = p.Elem.Flat, p.Len*p.Elem.FlatBytes
		p.Direct = p.Len == 1 && p.Elem.Direct
	case reflect.Slice:
		p.ByteElem = t.Elem().Kind() == reflect.Uint8
		p.Elem = compile(t.Elem(), pending)
		switch {
		case p.Elem.Flat:
			p.Bulk, p.ElemBytes = true, p.Elem.FlatBytes
		case p.Elem.Kind == reflect.String:
			// Strings are immutable, so sharing them is a deep copy;
			// each counts its header, as a bulk copy does not look at it.
			p.Bulk, p.ElemBytes = true, p.Elem.Size
		}
	case reflect.Pointer:
		p.Snap = t.Implements(snapshotterType)
		p.Elem = compile(t.Elem(), pending)
	case reflect.Map:
		p.Key = compile(t.Key(), pending)
		p.Elem = compile(t.Elem(), pending)
	case reflect.Interface:
		p.Itab = t.NumMethod() > 0
	}
	if !p.Flat {
		p.FlatBytes = 0
	}
	p.Leaf = p.Flat || p.Kind == reflect.String || p.Kind == reflect.Chan || p.Kind == reflect.Func
	return p
}

// StrHash64 hashes a label or type string to the 64-bit word objgraph's
// fingerprint mixes in its place. FNV-1a with a murmur-style finalizer:
// cheap at plan-compile time, and two distinct strings colliding only
// weakens the fingerprint toward its documented 2⁻¹²⁸-class collision
// caveat.
func StrHash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return Fmix64(h ^ uint64(len(s))<<56)
}

// Fmix64 is the 64-bit avalanche finalizer (MurmurHash3 constants).
func Fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
