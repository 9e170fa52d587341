// Package checkpoint implements the "checkpoint, execute, and roll back on
// exception" idiom (paper §3, Listing 2): an aliasing-preserving deep copy
// of an object graph plus an in-place Restore that reinstates the
// checkpointed state through the original pointers, so references held by
// other objects remain valid after rollback.
//
// The paper's C++ implementation generates per-class deep_copy/replace
// functions from type information; here the engine compiles a clone plan
// per reflect.Type on first sight (plan.go) — the analog of a generated
// deep_copy — covering all types with exported fields, and Capture and
// Restore run from those plans. Types with unexported state participate
// by implementing Snapshotter (the analog of a hand-written deep_copy). A
// strategy's committed checkpoints hand their large flat slices and clone
// objects back for its later captures to reuse (reuse.go).
// Types that cannot be checkpointed are reported as errors at capture time,
// never checkpointed partially — preserving the paper's one-sided
// guarantee.
package checkpoint

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Snapshotter lets a type with unexported or external state participate in
// checkpointing. CheckpointState returns a deep copy of the internal state;
// RestoreState reinstates a previously returned state.
type Snapshotter interface {
	CheckpointState() any
	RestoreState(state any)
}

var snapshotterType = reflect.TypeOf((*Snapshotter)(nil)).Elem()

// UnsupportedError reports a value that cannot be checkpointed, naming the
// offending type and field.
type UnsupportedError struct {
	Type  string
	Field string
	Why   string
}

// Error implements the error interface.
func (e *UnsupportedError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("checkpoint: cannot checkpoint %s.%s: %s", e.Type, e.Field, e.Why)
	}
	return fmt.Sprintf("checkpoint: cannot checkpoint %s: %s", e.Type, e.Why)
}

// refKey identifies a reference for the clone memo and the reverse
// (clone→original) map used by in-place restore. A slice is one view of
// its backing array, so its length and capacity are part of its identity:
// two views that differ in either get their own clone and restore to
// their own header.
type refKey struct {
	ptr      uintptr
	plan     *plan
	len, cap int
}

// ref is one cloned reference and its original. orig keeps the original
// alive for Restore, detached from the location it was read from so later
// writes there do not change it: the pointer or map itself (one word, so
// boxing it does not allocate), or a slice's backing array, whose header
// the key holds. A Snapshotter's clone is the original pointer.
type ref struct {
	key   refKey
	orig  any
	clone reflect.Value
	// own marks the clone objects commit recycles as spares: pointees and
	// small slices of references (makeSlice).
	own bool
}

// detached returns what a ref keeps of the original reference v.
func detached(v reflect.Value) any {
	if v.Kind() == reflect.Slice {
		return v.UnsafePointer()
	}
	return v.Interface()
}

// original returns the original reference as a value of its type.
func (r *ref) original() reflect.Value {
	p := r.key.plan
	if p.kind != reflect.Slice {
		return reflect.ValueOf(r.orig)
	}
	hdr := &sliceHeader{data: r.orig.(unsafe.Pointer), len: r.key.len, cap: r.key.cap}
	return reflect.NewAt(p.typ, unsafe.Pointer(hdr)).Elem()
}

// sliceHeader is the runtime layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// smallMemo is the number of references the memo scans linearly before it
// indexes them in a map; most masked calls capture fewer.
const smallMemo = 8

// scratch is a checkpoint's bookkeeping. A committed checkpoint hands it
// back to its strategy, cleared, for a later capture to reuse.
type scratch struct {
	roots []rootEntry
	refs  []ref
	memo  map[refKey]int // original key -> refs index, once refs outgrows smallMemo
	// slabs are the large flat clone slices, returned to the strategy's
	// free list on commit.
	slabs []slab
	// spare holds the zeroed clone objects of the checkpoint this scratch
	// last served, in allocation order; next is the first one not yet
	// taken. A capture of the same shape takes them all back.
	spare []spare
	next  int
}

// Checkpoint is a restorable deep copy of one or more object graphs.
type Checkpoint struct {
	*scratch
	rev   map[refKey]int // clone key -> refs index; built by the first Restore
	blobs map[refKey]any // Snapshotter state; nil until a Snapshotter is met
	// owner is the strategy that captured this checkpoint; nil for the
	// package-level Capture, whose checkpoints reuse nothing.
	owner     *deepCopy
	committed bool
	bytes     int
}

type rootEntry struct {
	clone reflect.Value
	plan  *plan
}

// Capture deep-copies the object graphs rooted at the given values. Every
// root must be a non-nil pointer (the receiver of a method, or a
// by-reference argument) so that Restore can write back in place.
func Capture(roots ...any) (*Checkpoint, error) {
	return capture(nil, roots)
}

func capture(owner *deepCopy, roots []any) (*Checkpoint, error) {
	c := &Checkpoint{scratch: owner.takeScratch(), owner: owner}
	for i, r := range roots {
		if r == nil {
			return nil, &UnsupportedError{Type: "<nil>", Why: fmt.Sprintf("root %d is nil", i)}
		}
		v := reflect.ValueOf(r)
		if v.Kind() != reflect.Pointer || v.IsNil() {
			return nil, &UnsupportedError{
				Type: v.Type().String(),
				Why:  "checkpoint roots must be non-nil pointers",
			}
		}
		p := planFor(v.Type())
		clone, err := c.clonePointer(v, p)
		if err != nil {
			return nil, err
		}
		c.roots = append(c.roots, rootEntry{clone: clone, plan: p})
	}
	return c, nil
}

// Bytes returns the approximate number of payload bytes captured.
func (c *Checkpoint) Bytes() int { return c.bytes }

// lookup returns the clone of the reference k, if it was cloned already.
func (c *Checkpoint) lookup(k refKey) (reflect.Value, bool) {
	if len(c.refs) > smallMemo {
		if i, ok := c.memo[k]; ok {
			return c.refs[i].clone, true
		}
		return reflect.Value{}, false
	}
	for i := range c.refs {
		if c.refs[i].key == k {
			return c.refs[i].clone, true
		}
	}
	return reflect.Value{}, false
}

// remember records a cloned reference before its contents are cloned, so
// aliases and cycles reaching it again resolve to the same clone.
func (c *Checkpoint) remember(k refKey, orig, clone reflect.Value, own bool) {
	c.refs = append(c.refs, ref{key: k, orig: detached(orig), clone: clone, own: own})
	switch n := len(c.refs); {
	case n == smallMemo+1:
		if c.memo == nil {
			c.memo = make(map[refKey]int, 4*smallMemo)
		}
		for i := range c.refs {
			c.memo[c.refs[i].key] = i
		}
	case n > smallMemo+1:
		c.memo[k] = n - 1
	}
}

// cloneInto deep-copies src into dst, a settable zero value of the same
// type, following the compiled plan p. References are memoized, so
// aliasing (and cycles) are preserved in the copy.
func (c *Checkpoint) cloneInto(dst, src reflect.Value, p *plan) error {
	if p.leaf {
		dst.Set(src)
		c.bytes += leafBytes(src, p)
		return nil
	}
	switch p.kind {
	case reflect.Pointer, reflect.Slice, reflect.Map:
		clone, err := c.cloneRef(src, p)
		if err != nil {
			return err
		}
		dst.Set(clone)
	case reflect.Interface:
		if src.IsNil() {
			return nil
		}
		inner := src.Elem()
		ip := planFor(inner.Type())
		if ip.leaf {
			// The boxed value is immutable: share the box.
			dst.Set(src)
			c.bytes += leafBytes(inner, ip)
			return nil
		}
		clone, err := c.cloneValue(inner, ip)
		if err != nil {
			return err
		}
		dst.Set(clone)
	case reflect.Struct:
		for _, f := range p.fields {
			if err := c.cloneInto(dst.Field(f.index), src.Field(f.index), f.plan); err != nil {
				return err
			}
		}
		if p.badField != "" {
			return &UnsupportedError{
				Type:  p.typ.String(),
				Field: p.badField,
				Why:   "unexported field; implement checkpoint.Snapshotter on the enclosing type",
			}
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			if err := c.cloneInto(dst.Index(i), src.Index(i), p.elem); err != nil {
				return err
			}
		}
	default:
		return &UnsupportedError{
			Type: p.typ.String(),
			Why:  fmt.Sprintf("unsupported kind %s", p.kind),
		}
	}
	return nil
}

// leafBytes is the payload of a value its plan copies by assignment.
func leafBytes(v reflect.Value, p *plan) int {
	if p.kind == reflect.String {
		return v.Len()
	}
	return p.flatBytes
}

// cloneValue returns a deep copy of src, which need not be addressable
// (map entries, interface dynamic values).
func (c *Checkpoint) cloneValue(src reflect.Value, p *plan) (reflect.Value, error) {
	switch {
	case p.leaf:
		c.bytes += leafBytes(src, p)
		return src, nil
	case p.kind == reflect.Pointer || p.kind == reflect.Slice || p.kind == reflect.Map:
		return c.cloneRef(src, p)
	}
	fresh := reflect.New(p.typ).Elem()
	if err := c.cloneInto(fresh, src, p); err != nil {
		return reflect.Value{}, err
	}
	return fresh, nil
}

// cloneRef returns the clone of a pointer, slice or map.
func (c *Checkpoint) cloneRef(v reflect.Value, p *plan) (reflect.Value, error) {
	switch p.kind {
	case reflect.Pointer:
		return c.clonePointer(v, p)
	case reflect.Slice:
		return c.cloneSlice(v, p)
	default:
		return c.cloneMap(v, p)
	}
}

func (c *Checkpoint) clonePointer(v reflect.Value, p *plan) (reflect.Value, error) {
	if v.IsNil() {
		return v, nil
	}
	key := refKey{ptr: v.Pointer(), plan: p}
	if prev, ok := c.lookup(key); ok {
		return prev, nil
	}
	// A pointer to a Snapshotter checkpoints via the type's own deep copy.
	if p.snap && v.CanInterface() {
		snap, ok := v.Interface().(Snapshotter)
		if !ok {
			return reflect.Value{}, &UnsupportedError{Type: p.typ.String(), Why: "Snapshotter assertion failed"}
		}
		d := reflect.ValueOf(snap)
		c.remember(key, d, d, false)
		if c.blobs == nil {
			c.blobs = make(map[refKey]any)
		}
		c.blobs[key] = snap.CheckpointState()
		return d, nil
	}
	if p.elem.empty {
		// Nothing behind the pointer to copy or restore.
		return v, nil
	}
	fresh := c.alloc(p, 0)
	c.remember(key, v, fresh, true)
	if err := c.cloneInto(fresh.Elem(), v.Elem(), p.elem); err != nil {
		return reflect.Value{}, err
	}
	return fresh, nil
}

func (c *Checkpoint) cloneSlice(v reflect.Value, p *plan) (reflect.Value, error) {
	n := v.Len()
	if v.IsNil() || n == 0 || p.elem.empty {
		// No element to copy: the header itself is the checkpointed
		// state, kept with its original backing array and capacity.
		return v, nil
	}
	key := refKey{ptr: v.Pointer(), plan: p, len: n, cap: v.Cap()}
	if prev, ok := c.lookup(key); ok {
		return prev, nil
	}
	fresh, own := c.makeSlice(p, n)
	c.remember(key, v, fresh, own)
	if p.bulk {
		reflect.Copy(fresh, v)
		c.bytes += n * p.elemBytes
		return fresh, nil
	}
	for i := 0; i < n; i++ {
		if err := c.cloneInto(fresh.Index(i), v.Index(i), p.elem); err != nil {
			return reflect.Value{}, err
		}
	}
	return fresh, nil
}

func (c *Checkpoint) cloneMap(v reflect.Value, p *plan) (reflect.Value, error) {
	if v.IsNil() {
		return v, nil
	}
	key := refKey{ptr: v.Pointer(), plan: p}
	if prev, ok := c.lookup(key); ok {
		return prev, nil
	}
	fresh := reflect.MakeMapWithSize(p.typ, v.Len())
	c.remember(key, v, fresh, false)
	iter := v.MapRange()
	for iter.Next() {
		k, err := c.cloneValue(iter.Key(), p.key)
		if err != nil {
			return reflect.Value{}, err
		}
		val, err := c.cloneValue(iter.Value(), p.elem)
		if err != nil {
			return reflect.Value{}, err
		}
		fresh.SetMapIndex(k, val)
	}
	return fresh, nil
}
