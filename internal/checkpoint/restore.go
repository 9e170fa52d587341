package checkpoint

import (
	"errors"
	"fmt"
	"reflect"
)

// errCommitted reports a rollback of a committed checkpoint: a deep copy's
// clone may already be reused by a later capture, and a journal's undo
// records have been handed to the enclosing journal.
var errCommitted = errors.New("checkpoint: restore after commit")

// Rollback implements Handle by restoring the checkpointed state.
func (c *Checkpoint) Rollback() error { return c.Restore() }

// Commit implements Committer: the checkpointed call returned normally,
// so the clone is dead. Its clone objects, its large flat slices and its
// bookkeeping go back to the strategy that captured it, for later
// captures to reuse. A committed checkpoint cannot be restored; Commit is
// idempotent.
func (c *Checkpoint) Commit() {
	if c.committed {
		return
	}
	c.committed = true
	if c.owner != nil {
		c.owner.recycle(c.scratch)
	}
	c.scratch, c.rev, c.blobs = nil, nil, nil
}

var _ Committer = (*Checkpoint)(nil)

// restorer is one Restore pass: visited marks the references (by refs
// index) whose originals were already written back.
type restorer struct {
	c       *Checkpoint
	visited []bool
}

// Restore reinstates the checkpointed state in place (the paper's
// replace(this, objgraph), Listing 2). Objects that existed at capture time
// get their old contents written back through their original pointers, so
// aliases held elsewhere in the program observe the rollback; objects the
// failed method allocated become garbage (the paper needed reference
// counting for this; Go's GC covers it, cycles included). Restore can run
// any number of times until the checkpoint is committed.
func (c *Checkpoint) Restore() error {
	if c.committed {
		return errCommitted
	}
	if c.rev == nil {
		// Restore is the rare path (an exception unwound the call), so the
		// clone→original map is built here rather than during capture.
		c.rev = make(map[refKey]int, len(c.refs))
		for i := range c.refs {
			c.rev[cloneKey(c.refs[i].clone, c.refs[i].key.plan)] = i
		}
	}
	r := restorer{c: c, visited: make([]bool, len(c.refs))}
	for _, root := range c.roots {
		if _, err := r.materialize(root.clone, root.plan); err != nil {
			return err
		}
	}
	return nil
}

// cloneKey is the reverse-map key of a clone reference.
func cloneKey(v reflect.Value, p *plan) refKey {
	k := refKey{ptr: v.Pointer(), plan: p}
	if p.kind == reflect.Slice {
		k.len, k.cap = v.Len(), v.Cap()
	}
	return k
}

// find returns the refs index of the clone reference v, and whether
// this pass meets it for the first time.
func (r *restorer) find(v reflect.Value, p *plan) (int, bool, error) {
	i, ok := r.c.rev[cloneKey(v, p)]
	if !ok {
		return 0, false, &UnsupportedError{
			Type: p.typ.String(),
			Why:  fmt.Sprintf("clone %s %#x has no original", p.kind, v.Pointer()),
		}
	}
	first := !r.visited[i]
	r.visited[i] = true
	return i, first, nil
}

// restoreInto writes the clone's contents into dst (an original, settable
// location), mapping interior clone references back to the originals.
func (r *restorer) restoreInto(dst, src reflect.Value, p *plan) error {
	switch {
	case p.leaf:
		dst.Set(src)
	case p.kind == reflect.Struct:
		for _, f := range p.fields {
			if err := r.restoreInto(dst.Field(f.index), src.Field(f.index), f.plan); err != nil {
				return err
			}
		}
	case p.kind == reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			if err := r.restoreInto(dst.Index(i), src.Index(i), p.elem); err != nil {
				return err
			}
		}
	default:
		m, err := r.materialize(src, p)
		if err != nil {
			return err
		}
		dst.Set(m)
	}
	return nil
}

// materialize converts a clone value into the value to install in an
// original location: original pointers for cloned pointees (restoring their
// contents once), the original map (cleared and refilled) for cloned maps,
// and the original header and backing array for cloned slices.
func (r *restorer) materialize(src reflect.Value, p *plan) (reflect.Value, error) {
	c := r.c
	switch p.kind {
	case reflect.Pointer:
		if src.IsNil() || (p.elem.empty && !p.snap) {
			return src, nil
		}
		i, first, err := r.find(src, p)
		if err != nil {
			return reflect.Value{}, err
		}
		orig := c.refs[i].original()
		if blob, ok := c.blobs[c.refs[i].key]; ok {
			// Snapshotter: clone == original pointer.
			if first {
				snap, sok := orig.Interface().(Snapshotter)
				if !sok {
					return reflect.Value{}, &UnsupportedError{Type: p.typ.String(), Why: "Snapshotter assertion failed at restore"}
				}
				snap.RestoreState(blob)
			}
			return orig, nil
		}
		if first {
			if err := r.restoreInto(orig.Elem(), src.Elem(), p.elem); err != nil {
				return reflect.Value{}, err
			}
		}
		return orig, nil
	case reflect.Slice:
		if src.IsNil() || src.Len() == 0 || p.elem.empty {
			// The clone is the original header (cloneSlice).
			return src, nil
		}
		i, first, err := r.find(src, p)
		if err != nil {
			return reflect.Value{}, err
		}
		orig := c.refs[i].original()
		if !first {
			return orig, nil
		}
		if p.bulk {
			reflect.Copy(orig, src)
			return orig, nil
		}
		for j := 0; j < src.Len(); j++ {
			if err := r.restoreInto(orig.Index(j), src.Index(j), p.elem); err != nil {
				return reflect.Value{}, err
			}
		}
		return orig, nil
	case reflect.Map:
		if src.IsNil() {
			return src, nil
		}
		i, first, err := r.find(src, p)
		if err != nil {
			return reflect.Value{}, err
		}
		orig := c.refs[i].original()
		if !first {
			return orig, nil
		}
		// Clear the original map in place so external aliases observe the
		// rollback, then refill from the clone.
		orig.Clear()
		iter := src.MapRange()
		for iter.Next() {
			k, err := r.materialize(iter.Key(), p.key)
			if err != nil {
				return reflect.Value{}, err
			}
			v, err := r.materialize(iter.Value(), p.elem)
			if err != nil {
				return reflect.Value{}, err
			}
			orig.SetMapIndex(k, v)
		}
		return orig, nil
	case reflect.Interface:
		if src.IsNil() {
			return src, nil
		}
		inner := src.Elem()
		ip := planFor(inner.Type())
		if ip.leaf {
			return src, nil
		}
		// Set and SetMapIndex box the materialized value into the
		// location's interface type.
		return r.materialize(inner, ip)
	case reflect.Struct, reflect.Array:
		if p.flat {
			return src, nil
		}
		// Composite values inside map entries and interfaces are not
		// addressable: rebuild them.
		fresh := reflect.New(p.typ).Elem()
		if err := r.restoreInto(fresh, src, p); err != nil {
			return reflect.Value{}, err
		}
		return fresh, nil
	default:
		return src, nil
	}
}
