// Package checkpoint implements the "checkpoint, execute, and roll back on
// exception" idiom (paper §3, Listing 2): an aliasing-preserving deep copy
// of an object graph plus an in-place Restore that reinstates the
// checkpointed state through the original pointers, so references held by
// other objects remain valid after rollback.
//
// The paper's C++ implementation generates per-class deep_copy/replace
// functions from type information; here Capture and Restore run from the
// per-type plans of internal/typeplan, compiled once per reflect.Type and
// shared with objgraph's detection — the analog of a generated deep_copy —
// covering all types with exported fields, and number references with its
// RefTable. Types with unexported state participate by implementing
// Snapshotter (the analog of a hand-written deep_copy). A strategy's
// committed and rolled-back checkpoints hand their large flat slices and
// clone objects back for its later captures to reuse (reuse.go).
// Types that cannot be checkpointed are reported as errors at capture time,
// never checkpointed partially — preserving the paper's one-sided
// guarantee.
package checkpoint

import (
	"fmt"
	"reflect"
	"unsafe"

	"failatomic/internal/typeplan"
)

// Snapshotter lets a type with unexported or external state participate in
// checkpointing. CheckpointState returns a deep copy of the internal state;
// RestoreState reinstates a previously returned state.
type Snapshotter = typeplan.Snapshotter

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

// ref is one cloned reference and its original. orig keeps the original
// alive for Restore, detached from the location it was read from so later
// writes there do not change it, in the reference's own runtime layout: a
// pointer or map is its first word, a slice the whole header. A
// Snapshotter's clone is the original pointer.
type ref struct {
	plan  *typeplan.Plan
	orig  sliceHeader
	clone reflect.Value
	// own marks the clone objects commit recycles as spares: pointees and
	// small slices of references (makeSlice).
	own bool
}

// original returns the original reference as a value of its type, read
// in place from the ref, so Restore allocates nothing for it.
func (r *ref) original() reflect.Value {
	return reflect.NewAt(r.plan.Type, unsafe.Pointer(&r.orig)).Elem()
}

// sliceHeader is the runtime layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// scratch is a checkpoint's bookkeeping. A committed or rolled-back
// checkpoint hands it back to its strategy, cleared, for a later capture
// to reuse.
type scratch struct {
	roots []rootEntry
	refs  []ref
	// origs numbers the original references and clones their clones, both
	// in refs order, so a reference's id is its refs index + 1. Capture
	// fills origs; each Restore refills clones, which the first one
	// allocates: most checkpoints are committed, never restored.
	origs  typeplan.RefTable
	clones *typeplan.RefTable
	// visited marks, by refs index, the originals a Restore pass has
	// written back.
	visited []bool
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
	blobs map[int]any // Snapshotter state by refs index; nil until a Snapshotter is met
	// owner is the strategy that captured this checkpoint; nil for the
	// package-level Capture, whose checkpoints reuse nothing.
	owner *deepCopy
	// released is why the checkpoint can no longer be restored
	// (errCommitted or errRolledBack); nil while it is open.
	released error
	bytes    int
}

type rootEntry struct {
	clone reflect.Value
	plan  *typeplan.Plan
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
		p := typeplan.For(v.Type())
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

// seen returns the clone of the original reference v (of plan p) and
// true if it was cloned already. Otherwise v took the next id, and the
// caller must remember it next, so that id stays its refs index + 1.
func (c *Checkpoint) seen(v reflect.Value, p *typeplan.Plan) (reflect.Value, bool) {
	id, ok := intern(&c.origs, v, p)
	if ok {
		return c.refs[id-1].clone, true
	}
	return reflect.Value{}, false
}

// intern numbers the reference v, of plan p, in t. A slice is one view
// of its backing array, so its length and capacity are part of its
// identity: two views that differ in either get their own clone and
// restore to their own header.
func intern(t *typeplan.RefTable, v reflect.Value, p *typeplan.Plan) (int, bool) {
	if p.Kind == reflect.Slice {
		return t.Intern(v.Pointer(), p, v.Len(), v.Cap())
	}
	return t.Intern(v.Pointer(), p, 0, 0)
}

// remember records a cloned reference before its contents are cloned, so
// aliases and cycles reaching it again resolve to the same clone.
func (c *Checkpoint) remember(p *typeplan.Plan, orig, clone reflect.Value, own bool) {
	r := ref{plan: p, orig: sliceHeader{data: orig.UnsafePointer()}, clone: clone, own: own}
	if p.Kind == reflect.Slice {
		r.orig.len, r.orig.cap = orig.Len(), orig.Cap()
	}
	c.refs = append(c.refs, r)
}

// cloneInto deep-copies src into dst, a settable zero value of the same
// type, following the compiled plan p. References are memoized, so
// aliasing (and cycles) are preserved in the copy.
func (c *Checkpoint) cloneInto(dst, src reflect.Value, p *typeplan.Plan) error {
	if p.Leaf {
		dst.Set(src)
		c.bytes += leafBytes(src, p)
		return nil
	}
	switch p.Kind {
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
		ip := typeplan.For(inner.Type())
		if ip.Leaf {
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
		for _, f := range p.Fields {
			if !f.Exported {
				if f.Plan.Empty {
					continue
				}
				return &UnsupportedError{
					Type:  p.TypeStr,
					Field: f.Name,
					Why:   "unexported field; implement checkpoint.Snapshotter on the enclosing type",
				}
			}
			if err := c.cloneInto(dst.Field(f.Index), src.Field(f.Index), f.Plan); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			if err := c.cloneInto(dst.Index(i), src.Index(i), p.Elem); err != nil {
				return err
			}
		}
	default:
		return &UnsupportedError{
			Type: p.TypeStr,
			Why:  fmt.Sprintf("unsupported kind %s", p.Kind),
		}
	}
	return nil
}

// leafBytes is the payload of a value its plan copies by assignment.
func leafBytes(v reflect.Value, p *typeplan.Plan) int {
	if p.Kind == reflect.String {
		return v.Len()
	}
	return p.FlatBytes
}

// cloneValue returns a deep copy of src, which need not be addressable
// (map entries, interface dynamic values).
func (c *Checkpoint) cloneValue(src reflect.Value, p *typeplan.Plan) (reflect.Value, error) {
	switch {
	case p.Leaf:
		c.bytes += leafBytes(src, p)
		return src, nil
	case p.Kind == reflect.Pointer || p.Kind == reflect.Slice || p.Kind == reflect.Map:
		return c.cloneRef(src, p)
	}
	fresh := reflect.New(p.Type).Elem()
	if err := c.cloneInto(fresh, src, p); err != nil {
		return reflect.Value{}, err
	}
	return fresh, nil
}

// cloneRef returns the clone of a pointer, slice or map.
func (c *Checkpoint) cloneRef(v reflect.Value, p *typeplan.Plan) (reflect.Value, error) {
	switch p.Kind {
	case reflect.Pointer:
		return c.clonePointer(v, p)
	case reflect.Slice:
		return c.cloneSlice(v, p)
	default:
		return c.cloneMap(v, p)
	}
}

func (c *Checkpoint) clonePointer(v reflect.Value, p *typeplan.Plan) (reflect.Value, error) {
	if v.IsNil() {
		return v, nil
	}
	// A pointer to a Snapshotter checkpoints via the type's own deep copy.
	snap := p.Snap && v.CanInterface()
	if !snap && p.Elem.Empty {
		// Nothing behind the pointer to copy or restore.
		return v, nil
	}
	if prev, ok := c.seen(v, p); ok {
		return prev, nil
	}
	if snap {
		s, ok := v.Interface().(Snapshotter)
		if !ok {
			return reflect.Value{}, &UnsupportedError{Type: p.TypeStr, Why: "Snapshotter assertion failed"}
		}
		d := reflect.ValueOf(s)
		c.remember(p, d, d, false)
		if c.blobs == nil {
			c.blobs = make(map[int]any)
		}
		c.blobs[len(c.refs)-1] = s.CheckpointState()
		return d, nil
	}
	fresh := c.alloc(p, 0)
	c.remember(p, v, fresh, true)
	if err := c.cloneInto(fresh.Elem(), v.Elem(), p.Elem); err != nil {
		return reflect.Value{}, err
	}
	return fresh, nil
}

func (c *Checkpoint) cloneSlice(v reflect.Value, p *typeplan.Plan) (reflect.Value, error) {
	n := v.Len()
	if v.IsNil() || n == 0 || p.Elem.Empty {
		// No element to copy: the header itself is the checkpointed
		// state, kept with its original backing array and capacity.
		return v, nil
	}
	if prev, ok := c.seen(v, p); ok {
		return prev, nil
	}
	fresh, own := c.makeSlice(p, n)
	c.remember(p, v, fresh, own)
	if p.Bulk {
		reflect.Copy(fresh, v)
		c.bytes += n * p.ElemBytes
		return fresh, nil
	}
	for i := 0; i < n; i++ {
		if err := c.cloneInto(fresh.Index(i), v.Index(i), p.Elem); err != nil {
			return reflect.Value{}, err
		}
	}
	return fresh, nil
}

func (c *Checkpoint) cloneMap(v reflect.Value, p *typeplan.Plan) (reflect.Value, error) {
	if v.IsNil() {
		return v, nil
	}
	if prev, ok := c.seen(v, p); ok {
		return prev, nil
	}
	fresh := reflect.MakeMapWithSize(p.Type, v.Len())
	c.remember(p, v, fresh, false)
	iter := v.MapRange()
	for iter.Next() {
		k, err := c.cloneValue(iter.Key(), p.Key)
		if err != nil {
			return reflect.Value{}, err
		}
		val, err := c.cloneValue(iter.Value(), p.Elem)
		if err != nil {
			return reflect.Value{}, err
		}
		fresh.SetMapIndex(k, val)
	}
	return fresh, nil
}
