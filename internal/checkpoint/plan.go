package checkpoint

import (
	"reflect"
	"sync"
)

// Compiled per-type clone plans — the analog of the paper's generated
// per-class deep_copy/replace functions (Listing 2, §6.2). Without them
// Capture and Restore would re-derive every type fact on every value of
// every masked call: the kind dispatch, whether a pointer type is a
// Snapshotter, the exported field list (reflect.Type.Field allocates per
// call), and whether a value holds references at all. A plan computes all
// of that once per reflect.Type and links the plans of the types its
// values statically reach, so the engine hands each child its plan
// directly; the package-level map is consulted only at roots and at
// interface dynamic values.

// plan is the compiled clone recipe for one reflect.Type.
type plan struct {
	typ  reflect.Type
	kind reflect.Kind
	// flat marks values holding no references and no strings (scalars,
	// and structs and arrays of them): a deep copy is one assignment and
	// always covers flatBytes payload bytes. Padding is not payload.
	flat      bool
	flatBytes int
	// leaf marks values deep-copied by assignment: flat values, strings
	// (immutable), and channels and funcs (external resources, kept by
	// reference as the paper excludes external side effects, §4.4).
	leaf bool
	// empty marks zero-size types: there is nothing to copy or restore.
	empty bool
	// snap marks pointer types implementing Snapshotter.
	snap bool
	// bulk marks slices whose elements copy with one reflect.Copy (flat
	// or string elements), each covering elemBytes payload bytes.
	bulk      bool
	elemBytes int
	// fields are a struct's exported fields in declaration order, up to
	// badField, the first unexported field of non-zero size (which makes
	// the struct uncheckpointable; empty when there is none).
	fields   []fieldPlan
	badField string
	// elem is the plan of the pointee (Pointer), element (Slice, Array)
	// or value (Map) type; key is a map's key plan.
	elem, key *plan
}

// fieldPlan is one exported struct field of a compiled plan.
type fieldPlan struct {
	index int
	plan  *plan
}

// plans caches *plan by reflect.Type. Types are process-immutable, so
// entries are never invalidated.
var plans sync.Map

// compileMu serializes compilation, so a type is compiled once and the
// plans a compilation links are the ones planFor publishes.
var compileMu sync.Mutex

// planFor returns the compiled plan for t, compiling and caching it (with
// every plan it links) on first sight. The hit path is one lock-free map
// read; plans are published only once their links are complete.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	pending := make(map[reflect.Type]*plan)
	p := compilePlan(t, pending)
	// Flatness is a fixed point over the linked plans: a recursive type
	// reaches itself only through a reference, which is never flat, so
	// resolving children before parents (post-order) is enough.
	done := make(map[*plan]bool, len(pending))
	for _, q := range pending {
		resolveFlat(q, pending, done)
	}
	for typ, compiled := range pending {
		plans.Store(typ, compiled)
	}
	return p
}

// compilePlan derives the plan for t and, recursively, the plans it links.
// pending holds this compilation's unpublished plans; registering a plan
// there before resolving its children closes the cycles of recursive
// types. Called with compileMu held.
func compilePlan(t reflect.Type, pending map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p := pending[t]; p != nil {
		return p
	}
	p := &plan{typ: t, kind: t.Kind(), empty: t.Size() == 0}
	pending[t] = p
	switch p.kind {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				if f.Type.Size() == 0 {
					continue
				}
				p.badField = f.Name
				break
			}
			p.fields = append(p.fields, fieldPlan{index: i, plan: compilePlan(f.Type, pending)})
		}
	case reflect.Pointer:
		p.snap = t.Implements(snapshotterType)
		p.elem = compilePlan(t.Elem(), pending)
	case reflect.Slice, reflect.Array:
		p.elem = compilePlan(t.Elem(), pending)
	case reflect.Map:
		p.key = compilePlan(t.Key(), pending)
		p.elem = compilePlan(t.Elem(), pending)
	}
	return p
}

// resolveFlat computes p.flat and p.flatBytes after its children, and the
// bulk flag of slices over them. Published plans are already resolved.
func resolveFlat(p *plan, pending map[reflect.Type]*plan, done map[*plan]bool) {
	if done[p] || pending[p.typ] != p {
		return
	}
	done[p] = true
	switch p.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		p.flat, p.flatBytes = true, int(p.typ.Size())
	case reflect.Struct:
		p.flat = p.badField == ""
		for _, f := range p.fields {
			resolveFlat(f.plan, pending, done)
			p.flat = p.flat && f.plan.flat
			p.flatBytes += f.plan.flatBytes
		}
	case reflect.Array:
		resolveFlat(p.elem, pending, done)
		p.flat, p.flatBytes = p.elem.flat, p.typ.Len()*p.elem.flatBytes
	case reflect.Slice:
		resolveFlat(p.elem, pending, done)
		switch {
		case p.elem.flat:
			p.bulk, p.elemBytes = true, p.elem.flatBytes
		case p.elem.kind == reflect.String:
			// Strings are immutable, so sharing them is a deep copy;
			// each counts its header, as a bulk copy does not look at it.
			p.bulk, p.elemBytes = true, int(p.elem.typ.Size())
		}
	}
	if !p.flat {
		p.flatBytes = 0
	}
	p.leaf = p.flat || p.kind == reflect.String || p.kind == reflect.Chan || p.kind == reflect.Func
}
